// Windowed-join reference for the benchmark's correctness check.
//
// Computed from the workload alone — Workload::Sample, PassSFilter,
// PassTFilter and TuplesJoin over the statically-joining pairs — with no
// exploration, placement, routing or delivery involved, so it is
// independent of every layer the benchmark times.
//
// Semantics: a query live over sampling cycles [begin, end) starts with
// empty windows at `begin`. At each cycle the S tuple (if it passes the S
// filter) probes the T window, then enters the S window; then the T tuple
// (if it passes the T filter) probes the S window, this cycle's S tuple
// included, and enters the T window. A count-based window of size w keeps
// the last w tuples of its side; a time-based one keeps the tuples sampled
// in the last w cycles.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "workload/workload.h"

namespace perfbench {

using Pair = std::pair<aspen::net::NodeId, aspen::net::NodeId>;

/// Reference result counts of one query over [begin, end).
struct RefCount {
  /// Results over [begin, end - 1): what a query removed at `end` must at
  /// least have (its last cycle's results may still be in flight when it
  /// departs, and the medium drops them by design).
  uint64_t without_last = 0;
  /// Results over [begin, end): the exact count for a query live until
  /// `end`, and the upper limit for one removed at `end`.
  uint64_t full = 0;
};

/// Reference counts summed over `pairs`. Requires begin < end.
RefCount ReferenceCount(const aspen::workload::Workload& wl,
                        const std::vector<Pair>& pairs, int begin, int end);

/// As ReferenceCount, but the windows fill from `fill_from` (<= begin) and
/// only the results of cycles [begin, end) are counted: what a query
/// admitted at `begin` would get from windows it shares with a copy that
/// has run since `fill_from`.
RefCount ReferenceCountPrefilled(const aspen::workload::Workload& wl,
                                 const std::vector<Pair>& pairs, int fill_from,
                                 int begin, int end);

/// The windowed join of one pair over already-sampled, already-filtered
/// tuples, one Step per cycle; `joins(s, t)` decides whether two tuples
/// join. The workload-free core of ReferenceCount, so the tests can drive
/// it by hand.
class PairWindows {
 public:
  PairWindows(int size, bool time_based) : size_(size), time_(time_based) {}

  template <typename Joins>
  uint64_t Step(int cycle, const aspen::query::Tuple* s,
                const aspen::query::Tuple* t, Joins&& joins) {
    uint64_t found = 0;
    if (s != nullptr) {
      Evict(&t_win_, cycle);
      for (const auto& e : t_win_) found += joins(*s, e.second) ? 1 : 0;
      Insert(&s_win_, cycle, *s);
    }
    if (t != nullptr) {
      Evict(&s_win_, cycle);
      for (const auto& e : s_win_) found += joins(e.second, *t) ? 1 : 0;
      Insert(&t_win_, cycle, *t);
    }
    return found;
  }

 private:
  using Window = std::vector<std::pair<int, aspen::query::Tuple>>;
  void Evict(Window* w, int cycle) const;
  void Insert(Window* w, int cycle, const aspen::query::Tuple& tuple) const;

  int size_;
  bool time_;
  Window s_win_, t_win_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
