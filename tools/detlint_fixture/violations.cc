// detlint self-test fixture: every marked line must fire exactly the rule in
// its `expect:` marker, and nothing else in this file may fire. This file is
// lint input only — it is never compiled.
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace fixture {

struct Obj {
  int x;
};

// An unordered container with no order-insensitivity justification.
std::unordered_map<int, int> counts;  // expect: DL001

// A justified declaration passes DL001, but walking it is a separate claim:
// the iteration site needs its own justification or a migration.
// detlint: order-insensitive(fixture: justified decl, unjustified walk below)
std::unordered_set<int> members;

inline int WalkMembers() {
  int sum = 0;
  for (int m : members) {  // expect: DL002
    sum += m;
  }
  return sum;
}

inline int Draw() {
  return rand();  // expect: DL003
}

inline void Reseed() {
  srand(42u);  // expect: DL003
}

inline long Wall() {
  return time(nullptr);  // expect: DL003
}

inline unsigned TrueRandom() {
  std::random_device rd;  // expect: DL003
  return rd();
}

inline void Stamp() {
  auto t = std::chrono::steady_clock::now();  // expect: DL003
  (void)t;
}

// Pointer keys order by allocation address, not content.
std::map<Obj*, int> by_ptr;       // expect: DL004
std::set<const Obj*> ptr_roster;  // expect: DL004

// detlint: steady-state begin
inline int* HotAllocRaw() {
  return new int(3);  // expect: DL005
}

inline void* HotAllocC() {
  return malloc(16);  // expect: DL005
}

inline std::unique_ptr<Obj> HotAllocSmart() {
  return std::make_unique<Obj>();  // expect: DL005
}
// detlint: steady-state end

// Forging the sequential-phase capability on a shard hook.
inline void OnSampleShard(int cycle, int shard, int lo, int hi) {
  common::SequentialPhaseScope seq;  // expect: DL006
  (void)cycle;
  (void)shard;
  (void)lo;
  (void)hi;
}

// Forging it inside the deliver phase's node-range pass, which runs
// concurrently with the other shards' passes.
inline void OnDeliverShard(int cycle, int shard, int lo, int hi) {
  common::SequentialPhaseScope seq;  // expect: DL006
  (void)cycle;
  (void)shard;
  (void)lo;
  (void)hi;
}

}  // namespace fixture
