#include "oracle.h"

#include <algorithm>

namespace perfbench {

void PairWindows::Evict(Window* w, int cycle) const {
  if (!time_) return;
  const int oldest = cycle - size_ + 1;
  w->erase(std::remove_if(w->begin(), w->end(),
                          [oldest](const auto& e) { return e.first < oldest; }),
           w->end());
}

void PairWindows::Insert(Window* w, int cycle,
                         const aspen::query::Tuple& tuple) const {
  w->emplace_back(cycle, tuple);
  if (!time_ && static_cast<int>(w->size()) > size_) w->erase(w->begin());
  Evict(w, cycle);
}

namespace {

RefCount ReferencePairCount(const aspen::workload::Workload& wl, Pair pair,
                            int fill_from, int begin, int end) {
  const auto& window = wl.join_query().window;
  PairWindows windows(window.size, window.time_based);
  auto joins = [&wl](const aspen::query::Tuple& s,
                     const aspen::query::Tuple& t) {
    return wl.TuplesJoin(s, t);
  };
  RefCount out;
  for (int c = fill_from; c < end; ++c) {
    const aspen::query::Tuple s = wl.Sample(pair.first, c);
    const aspen::query::Tuple t = wl.Sample(pair.second, c);
    const bool s_in = wl.PassSFilter(pair.first, s, c);
    const bool t_in = wl.PassTFilter(pair.second, t, c);
    if (c == end - 1) out.without_last = out.full;
    const uint64_t found =
        windows.Step(c, s_in ? &s : nullptr, t_in ? &t : nullptr, joins);
    if (c >= begin) out.full += found;
  }
  return out;
}

}  // namespace

RefCount ReferenceCount(const aspen::workload::Workload& wl,
                        const std::vector<Pair>& pairs, int begin, int end) {
  return ReferenceCountPrefilled(wl, pairs, begin, begin, end);
}

RefCount ReferenceCountPrefilled(const aspen::workload::Workload& wl,
                                 const std::vector<Pair>& pairs, int fill_from,
                                 int begin, int end) {
  RefCount total;
  for (const Pair& p : pairs) {
    const RefCount r = ReferencePairCount(wl, p, fill_from, begin, end);
    total.without_last += r.without_last;
    total.full += r.full;
  }
  return total;
}

}  // namespace perfbench
