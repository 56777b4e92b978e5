// Term authority: the fencing oracle for replicated serving
// (docs/robustness.md, "Replication & failover").
//
// A replica set has at most one acknowledging writer at a time. The
// authority is the single source of truth for *which* one: a monotonic
// term counter every writer compares against its own adopted term on
// each write. Promotion (src/serve/replication.h, FollowerService)
// advances the term; a deposed primary that wakes up after a partition
// still holds its old term, so its writes fail with
// ApplyUpdatesOutcome::kFencedStaleTerm instead of forking history —
// the no-split-brain invariant reduces to "Advance is monotonic and
// writers check Current before acknowledging".
//
// Two implementations: an atomic in-process counter (tests and
// single-process drills) and a file-backed one (cross-process drills —
// a SIGCONT'd deposed primary re-reads the files and observes the
// election it slept through). Both model the third-party coordination
// service a production deployment would consult; the single-writer
// guarantee is exactly as strong as Advance's atomicity, and both are a
// compare-and-set: of racing candidates, exactly one wins each term.

#ifndef PITEX_SRC_SERVE_TERM_AUTHORITY_H_
#define PITEX_SRC_SERVE_TERM_AUTHORITY_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>

namespace pitex {

class TermAuthority {
 public:
  /// What Current() returns when the authority cannot tell the term (a
  /// term file that exists but cannot be read or parsed): a term no
  /// writer holds, so every writer is fenced, Advance refuses, and no
  /// candidate may hold an election or adopt it.
  static constexpr uint64_t kUnreadableTerm = UINT64_MAX;

  virtual ~TermAuthority() = default;
  /// The current term. Writers compare against their own adopted term
  /// on every write; a mismatch means a newer primary was elected.
  virtual uint64_t Current() const = 0;
  /// Advances the term to exactly `to`; fails (returns false) when the
  /// current term is already >= `to` — someone else won the election.
  virtual bool Advance(uint64_t to) = 0;
};

/// Atomic in-process authority (unit tests, single-process drills).
class InProcessTermAuthority final : public TermAuthority {
 public:
  explicit InProcessTermAuthority(uint64_t initial = 1) : term_(initial) {}
  uint64_t Current() const override {
    return term_.load(std::memory_order_acquire);
  }
  bool Advance(uint64_t to) override {
    uint64_t current = term_.load(std::memory_order_acquire);
    while (current < to) {
      if (term_.compare_exchange_weak(current, to,
                                      std::memory_order_acq_rel)) {
        return true;
      }
    }
    return false;
  }

 private:
  std::atomic<uint64_t> term_;
};

/// File-backed authority for cross-process drills. Each term is claimed
/// by creating the empty file `path.<term>` (decimal) beside the term
/// file `path` with O_CREAT | O_EXCL, so of candidates racing for one
/// term exactly one creates it, and the directory is fsynced before the
/// winner acts on its claim. The term file itself holds the decimal
/// term the authority starts from, and is never written by Advance.
class FileTermAuthority final : public TermAuthority {
 public:
  /// `path` is the term file; an absent file reads as `initial`, and
  /// any other failure to read a decimal term from it as
  /// kUnreadableTerm, rather than the initial term a deposed primary
  /// may hold.
  explicit FileTermAuthority(std::string path, uint64_t initial = 1)
      : path_(std::move(path)), initial_(initial) {}
  /// The largest of the term file's term and every claimed term;
  /// kUnreadableTerm when the term file or its directory cannot be read.
  /// It reads the whole directory, and claims are never removed, so a
  /// call costs O(elections + files beside the term file). Removing
  /// claims below the winner's would make it O(1) claims, but a scan
  /// that runs while one claim is removed and a larger one created may
  /// see neither, and read a term older than an election it followed.
  uint64_t Current() const override;
  /// Claims `to` if the current term is below it: true for the one
  /// candidate whose exclusive create made the claim, once the claim is
  /// durable and no larger term was claimed meanwhile.
  bool Advance(uint64_t to) override;

 private:
  std::string path_;
  uint64_t initial_;
};

}  // namespace pitex

#endif  // PITEX_SRC_SERVE_TERM_AUTHORITY_H_
