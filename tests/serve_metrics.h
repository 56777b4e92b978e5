// Totals the serving suites derive from a PitexService metrics snapshot.

#ifndef PITEX_TESTS_SERVE_METRICS_H_
#define PITEX_TESTS_SERVE_METRICS_H_

#include <cstdint>

#include "src/obs/metrics.h"

namespace pitex {

/// Queries a worker answered (cache hits included): every admitted query
/// resolves as ok, degraded or deadline-expired.
inline uint64_t QueriesServed(const obs::MetricsSnapshot& snap) {
  return snap.CounterValue("pitex_queries_ok_total") +
         snap.CounterValue("pitex_queries_degraded_total") +
         snap.CounterValue("pitex_queries_deadline_expired_total");
}

}  // namespace pitex

#endif  // PITEX_TESTS_SERVE_METRICS_H_
