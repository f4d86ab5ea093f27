// Hand-worked cases for the windowed-join reference (oracle.h). Exits 0 when
// every case matches its worked answer.

#include <array>  // workload/workload.h uses std::array without including it
#include <cstdio>
#include <vector>

#include "net/topology.h"
#include "oracle.h"

namespace perfbench {
namespace {

using aspen::query::Tuple;

int failures = 0;

void Expect(const char* name, uint64_t got, uint64_t want) {
  if (got == want) return;
  std::printf("FAIL %s: got %llu, want %llu\n", name,
              static_cast<unsigned long long>(got),
              static_cast<unsigned long long>(want));
  ++failures;
}

/// Drives PairWindows with one-attribute tuples: s_keys[c] (t_keys[c]) is
/// the key the S (T) side sends at cycle c, -1 when its filter drops the
/// tuple; tuples join on equal keys. Returns the total result count.
uint64_t RunKeys(int size, bool time_based, const std::vector<int>& s_keys,
                 const std::vector<int>& t_keys) {
  PairWindows w(size, time_based);
  auto joins = [](const Tuple& s, const Tuple& t) { return s[0] == t[0]; };
  uint64_t total = 0;
  for (size_t c = 0; c < s_keys.size(); ++c) {
    const Tuple s{s_keys[c]};
    const Tuple t{t_keys[c]};
    total += w.Step(static_cast<int>(c), s_keys[c] >= 0 ? &s : nullptr,
                    t_keys[c] >= 0 ? &t : nullptr, joins);
  }
  return total;
}

void Run() {
  // Both sides send key 1 every cycle, window of 1 tuple. Cycle 0: T meets
  // this cycle's S (1). Each later cycle: S meets last T (1), T meets this S
  // (1). Three cycles: 1 + 2 + 2 = 5.
  Expect("count window 1", RunKeys(1, false, {1, 1, 1}, {1, 1, 1}), 5);
  // Window of 3 tuples, four cycles of key 1 on both sides. Cycle c: S
  // probes min(c, 3) T tuples, T probes min(c + 1, 3) S tuples:
  // (0+1) + (1+2) + (2+3) + (3+3) = 15.
  Expect("count window 3", RunKeys(3, false, {1, 1, 1, 1}, {1, 1, 1, 1}), 15);
  // Same-cycle pair matches once, on the T side.
  Expect("same cycle once", RunKeys(3, false, {5}, {5}), 1);
  // Keys differ: nothing joins.
  Expect("no match", RunKeys(3, false, {1, 2, 3}, {4, 5, 6}), 0);
  // Filtered-out tuples (-1) neither probe nor enter windows. S sends key 7
  // at cycle 0 only; T sends key 7 at cycles 2 and 3: with a count window
  // the S tuple stays, so both T tuples match: 2.
  Expect("count window keeps old", RunKeys(3, false, {7, -1, -1, -1},
                                           {-1, -1, 7, 7}), 2);
  // The same with a time window of 3 cycles: at cycle 2 the S tuple of
  // cycle 0 is still inside (2 - 3 + 1 = 0), at cycle 3 it has left: 1.
  Expect("time window evicts", RunKeys(3, true, {7, -1, -1, -1},
                                       {-1, -1, 7, 7}), 1);
  // A count window of 2 drops the oldest S tuple: S sends 1, 2, 3 at
  // cycles 0..2; T sends 1 at cycle 3 and finds only 2 and 3: 0. T sends
  // 2 instead: 1.
  Expect("count window drops oldest", RunKeys(2, false, {1, 2, 3, -1},
                                              {-1, -1, -1, 1}), 0);
  Expect("count window keeps newest", RunKeys(2, false, {1, 2, 3, -1},
                                              {-1, -1, -1, 2}), 1);
}

/// Prefilled windows on a small real workload: filling from the query's own
/// admission is the plain reference, and counting a suffix of one run is
/// the whole run minus its prefix.
void RunPrefilled() {
  auto topo = aspen::net::Topology::Grid(10, 10, 256.0);
  auto made = aspen::workload::Workload::MakeQuery0(&*topo, {0.5, 0.5, 0.2},
                                                    /*num_pairs=*/8,
                                                    /*window=*/3, /*seed=*/7);
  const aspen::workload::Workload& w = *made;
  const auto pairs = w.AllJoinPairs();
  const RefCount plain = ReferenceCount(w, pairs, 5, 40);
  const RefCount same = ReferenceCountPrefilled(w, pairs, 5, 5, 40);
  Expect("prefill from begin (full)", same.full, plain.full);
  Expect("prefill from begin (without last)", same.without_last,
         plain.without_last);
  const RefCount whole = ReferenceCount(w, pairs, 0, 40);
  const RefCount head = ReferenceCount(w, pairs, 0, 20);
  const RefCount tail = ReferenceCountPrefilled(w, pairs, 0, 20, 40);
  Expect("prefilled suffix", tail.full, whole.full - head.full);
  Expect("prefilled suffix (without last)", tail.without_last,
         whole.without_last - head.full);
  if (whole.full == 0) Expect("workload joins at all", 0, 1);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::Run();
  perfbench::RunPrefilled();
  if (perfbench::failures == 0) std::printf("oracle_test: all cases pass\n");
  return perfbench::failures == 0 ? 0 : 1;
}
