// An owning copy of a sketch view for tests: its local ids are widened
// to 32 bits whatever width the view stores them at, so tests compare
// offsets and heads as plain vectors.

#ifndef PITEX_TESTS_OWNED_SKETCH_H_
#define PITEX_TESTS_OWNED_SKETCH_H_

#include "src/index/rr_graph.h"

namespace pitex {

inline RRGraph Owned(const RRView& view) {
  RRGraph graph;
  graph.Assign(view);
  return graph;
}

}  // namespace pitex

#endif  // PITEX_TESTS_OWNED_SKETCH_H_
