//===- sim/Simulator.cpp - Multicore discrete-event simulator ------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "support/Assert.h"

#include <algorithm>

using namespace cheetah;
using namespace cheetah::sim;

namespace {

/// Binary min-heap of runnable threads keyed by (clock, spawn index). Keys
/// are unique (indices are), so the order is the exact (clock, index)
/// minimum whatever the heap's shape.
class RunQueue {
public:
  struct Entry {
    uint64_t Clock;
    size_t Index;
    bool operator<(const Entry &Other) const {
      return Clock < Other.Clock ||
             (Clock == Other.Clock && Index < Other.Index);
    }
  };

  /// Heapifies \p Initial.
  explicit RunQueue(std::vector<Entry> Initial) : Heap(std::move(Initial)) {
    for (size_t I = Heap.size() / 2; I-- > 0;)
      siftDown(I, Heap[I]);
  }

  bool empty() const { return Heap.empty(); }
  size_t topIndex() const { return Heap.front().Index; }

  /// \returns true if \p Key, as the top's new key, would still be the
  /// minimum: it beats both of the root's children.
  bool staysOnTop(const Entry &Key) const {
    size_t N = Heap.size();
    return (N < 2 || Key < Heap[1]) && (N < 3 || Key < Heap[2]);
  }

  /// Gives the top thread the new key \p Key.
  void replaceTop(const Entry &Key) { siftDown(0, Key); }

  /// Removes the top thread.
  void popTop() {
    Entry Last = Heap.back();
    Heap.pop_back();
    if (!Heap.empty())
      siftDown(0, Last);
  }

private:
  /// Places \p Key at or below the hole \p Hole.
  void siftDown(size_t Hole, Entry Key) {
    size_t N = Heap.size();
    for (size_t Child = 2 * Hole + 1; Child < N; Child = 2 * Hole + 1) {
      if (Child + 1 < N && Heap[Child + 1] < Heap[Child])
        ++Child;
      if (!(Heap[Child] < Key))
        break;
      Heap[Hole] = Heap[Child];
      Hole = Child;
    }
    Heap[Hole] = Key;
  }

  std::vector<Entry> Heap;
};

} // namespace

const ThreadRecord &SimulationResult::thread(ThreadId Tid) const {
  for (const ThreadRecord &Record : Threads)
    if (Record.Tid == Tid)
      return Record;
  CHEETAH_UNREACHABLE("no record for requested thread id");
}

void Simulator::addObserver(SimObserver *Observer) {
  CHEETAH_ASSERT(Observer != nullptr, "null observer");
  Observers.push_back(Observer);
}

uint64_t Simulator::notifyThreadStart(ThreadId Tid, bool IsMain,
                                      uint64_t Now) {
  uint64_t Extra = 0;
  for (SimObserver *Observer : Observers)
    Extra += Observer->onThreadStart(Tid, IsMain, Now);
  return Extra;
}

uint64_t Simulator::notifyAccess(ThreadId Tid, const MemoryAccess &Access,
                                 const CoherenceResult &Result, uint64_t Now) {
  uint64_t Extra = 0;
  for (SimObserver *Observer : Observers)
    Extra += Observer->onMemoryAccess(Tid, Access, Result, Now);
  return Extra;
}

/// A live thread inside one parallel phase (or the main thread during a
/// serial body).
struct Simulator::RunningThread {
  ThreadId Tid = 0;
  Generator<ThreadEvent> Body;
  uint64_t Clock = 0;
  ThreadRecord Record;
};

bool Simulator::step(RunningThread &Thread, CoherenceModel &Coherence,
                     SimulationResult &Result) {
  if (!Thread.Body.next())
    return false;
  const ThreadEvent &Event = Thread.Body.value();
  if (Event.Kind == ThreadEventKind::Compute) {
    uint64_t N = Event.ComputeInstructions;
    Thread.Clock += N * Latency.ComputeCyclesPerInstruction;
    Thread.Record.Instructions += N;
    for (SimObserver *Observer : Observers)
      Observer->onInstructions(Thread.Tid, N);
    return true;
  }

  CoherenceResult Access =
      Coherence.access(Thread.Tid, Event.Access, Thread.Clock);
  if (Topology && Topology->multiNode()) {
    // First-touch placement: the page's home is the node of its first
    // accessor. Cache-missing accesses from any other node detour through
    // the home node (DRAM fetch from its controller, coherence ordered by
    // its directory) and pay the remote surcharge — folded into the access
    // latency so observers (PMU sampling) see the remote-DRAM cost.
    NodeId Node = Topology->nodeOf(Thread.Tid);
    bool Fresh;
    NodeId &Home = PageHomes.findOrInsert(
        Topology->pageIndex(Event.Access.Address), Fresh);
    if (Fresh)
      Home = Node;
    if (Home != Node) {
      uint32_t Base = 0;
      if (Access.Outcome == AccessOutcome::ColdMiss)
        Base = Latency.RemoteDramExtraCycles;
      else if (Access.Outcome != AccessOutcome::LocalHit)
        Base = Latency.RemoteTransferExtraCycles;
      else if (Event.Access.Kind == AccessKind::Write)
        // Cache-hitting remote stores still drain to the home node's
        // memory controller; reads served from the local cache stay free.
        Base = Latency.RemoteStoreExtraCycles;
      if (Base) {
        // Hop-proportional interconnect: crossing a farther node pair
        // pays Base scaled by the pair's distance over the minimum remote
        // distance, so uniform (binary local/remote) topologies pay
        // exactly Base and asymmetric ones make far traffic visibly more
        // expensive than near traffic.
        uint64_t Extra =
            Topology->scaledRemoteCycles(Base, Node, Home);
        Access.LatencyCycles += Extra;
        ++Result.RemoteNumaAccesses;
        Result.RemoteNumaExtraCycles += Extra;
      }
    }
  }
  Thread.Clock += Access.LatencyCycles;
  Thread.Record.Instructions += 1;
  Thread.Record.MemoryAccesses += 1;
  Thread.Record.MemoryCycles += Access.LatencyCycles;
  // Observer overhead (sampling traps, instrumentation) is charged after the
  // access completes, as a signal handler would run after the instruction.
  Thread.Clock +=
      notifyAccess(Thread.Tid, Event.Access, Access, Thread.Clock);
  return true;
}

SimulationResult Simulator::run(const ForkJoinProgram &Program) {
  SimulationResult Result;
  CoherenceModel Coherence(Geometry, Latency);
  PageHomes.clear();

  ThreadId NextTid = 0;
  uint64_t MainClock = 0;

  // The main thread exists for the whole program.
  RunningThread Main;
  Main.Tid = NextTid++;
  Main.Record.Tid = Main.Tid;
  Main.Record.IsMain = true;
  Main.Record.StartCycle = 0;
  MainClock += notifyThreadStart(Main.Tid, /*IsMain=*/true, MainClock);

  for (size_t PhaseIndex = 0; PhaseIndex < Program.Phases.size();
       ++PhaseIndex) {
    const PhaseSpec &Spec = Program.Phases[PhaseIndex];

    // --- Serial part: run the main thread's body to completion. ---
    if (Spec.SerialBody) {
      PhaseRecord Serial;
      Serial.Name = Spec.Name + "/serial";
      Serial.Parallel = false;
      Serial.StartCycle = MainClock;
      Serial.Members.push_back(Main.Tid);
      for (SimObserver *Observer : Observers)
        Observer->onPhaseBegin(Serial);

      Main.Clock = MainClock;
      Main.Body = Spec.SerialBody();
      while (step(Main, Coherence, Result)) {
      }
      MainClock = Main.Clock;

      Serial.EndCycle = MainClock;
      for (SimObserver *Observer : Observers)
        Observer->onPhaseEnd(Serial);
      Result.Phases.push_back(std::move(Serial));
    }

    if (Spec.ParallelBodies.empty())
      continue;

    // --- Parallel part: fork, interleave by virtual time, join. ---
    PhaseRecord Parallel;
    Parallel.Name = Spec.Name + "/parallel";
    Parallel.Parallel = true;
    Parallel.StartCycle = MainClock;

    std::vector<RunningThread> Children;
    Children.reserve(Spec.ParallelBodies.size());
    for (const ThreadBody &Body : Spec.ParallelBodies) {
      CHEETAH_ASSERT(Body != nullptr, "null parallel thread body");
      RunningThread Child;
      Child.Tid = NextTid++;
      // Thread creation is serialized on the main thread, so later threads
      // start later — visible in the per-thread start cycles.
      MainClock += Latency.ThreadSpawnCycles;
      Child.Clock = MainClock;
      Child.Clock += notifyThreadStart(Child.Tid, /*IsMain=*/false,
                                       Child.Clock);
      Child.Record.Tid = Child.Tid;
      Child.Record.PhaseIndex = static_cast<uint32_t>(PhaseIndex);
      Child.Record.StartCycle = Child.Clock;
      Child.Body = Body();
      Parallel.Members.push_back(Child.Tid);
      Children.push_back(std::move(Child));
    }
    for (SimObserver *Observer : Observers)
      Observer->onPhaseBegin(Parallel);

    // Min-clock scheduling: always advance the thread whose virtual clock is
    // smallest, ties going to the earlier-spawned thread. This interleaves
    // contending threads at instruction granularity, which is what makes
    // ping-pong invalidation patterns emerge the way they do on real
    // hardware.
    std::vector<RunQueue::Entry> Initial;
    Initial.reserve(Children.size());
    for (size_t I = 0; I < Children.size(); ++I)
      Initial.push_back({Children[I].Clock, I});
    RunQueue Runnable(std::move(Initial));

    uint64_t PhaseEnd = MainClock;
    while (!Runnable.empty()) {
      size_t Index = Runnable.topIndex();
      RunningThread &Child = Children[Index];
      bool Live = step(Child, Coherence, Result);
      // Run ahead while this thread would be picked again anyway.
      while (Live && Runnable.staysOnTop({Child.Clock, Index}))
        Live = step(Child, Coherence, Result);
      if (Live) {
        Runnable.replaceTop({Child.Clock, Index});
        continue;
      }
      Runnable.popTop();
      // Thread finished.
      Child.Record.EndCycle = Child.Clock;
      PhaseEnd = std::max(PhaseEnd, Child.Clock);
      for (SimObserver *Observer : Observers)
        Observer->onThreadEnd(Child.Record);
    }

    // Joins are serialized on the main thread after the last child ends.
    MainClock =
        PhaseEnd + Latency.ThreadJoinCycles * Children.size();
    Parallel.EndCycle = MainClock;
    for (SimObserver *Observer : Observers)
      Observer->onPhaseEnd(Parallel);

    for (RunningThread &Child : Children)
      Result.Threads.push_back(Child.Record);
    Result.Phases.push_back(std::move(Parallel));
  }

  Main.Record.EndCycle = MainClock;
  for (SimObserver *Observer : Observers)
    Observer->onThreadEnd(Main.Record);
  Result.Threads.push_back(Main.Record);
  Result.TotalCycles = MainClock;
  Result.Coherence = Coherence.stats();

  // Keep thread records sorted by id for deterministic reporting.
  std::sort(Result.Threads.begin(), Result.Threads.end(),
            [](const ThreadRecord &A, const ThreadRecord &B) {
              return A.Tid < B.Tid;
            });
  return Result;
}
