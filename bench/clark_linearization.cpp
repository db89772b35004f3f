// Clark's linearization study (§3.2.1-3.2.3) — the empirical basis for
// cdr-coding and for this repository's pointer-distance model.
//
// Shapes to reproduce:
//   1. pointer distances are small under ANY reasonable cons algorithm
//      ("a naive cons algorithm performed almost as well as a more clever
//       one ... an inherent feature of Lisp list behaviour");
//   2. explicit linearization drives cdr-distance-1 to ~100%;
//   3. "once a list was linearized it tended to stay fairly well
//      linearized" — destructive edits erode it only slowly.
#include <cstdio>

#include "bench_util.hpp"
#include "heap/linearization.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace small;
using heap::ConsPolicy;
using heap::LinearizingHeap;

/// Interleaved construction: several lists grow "simultaneously", the
/// worst realistic case for locality of allocation.
LinearizingHeap::DistanceReport interleavedBuild(ConsPolicy policy,
                                                 support::Rng& rng) {
  LinearizingHeap heap(policy);
  constexpr int kLists = 8;
  LinearizingHeap::Word tails[kLists];
  for (auto& t : tails) t = LinearizingHeap::Word::atom(~0ull);
  for (int step = 0; step < 4000; ++step) {
    const auto i = rng.below(kLists);
    const auto cell = heap.cons(
        LinearizingHeap::Word::atom(step), tails[i]);
    tails[i] = LinearizingHeap::Word::pointer(cell);
  }
  return heap.measureDistances();
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::BenchRun bench("clark_linearization", argc, argv, {});
  support::Rng rng(1983);

  std::puts("Clark §3.2: cons-policy and linearization study\n");
  support::TextTable table({"scenario", "policy", "adjacent |d|=1",
                            "cdr-linear d=+1", "mean |dist|"});
  auto addRow = [&](const char* scenario, const char* policy,
                    const LinearizingHeap::DistanceReport& report) {
    table.addRow({scenario, policy,
                  support::formatPercent(report.adjacentFraction(), 1),
                  support::formatPercent(report.distanceOneFraction(), 1),
                  support::formatDouble(report.magnitude.mean(), 2)});
    bench.report().addFigure(std::string("clark.distance1.") + scenario +
                                 "." + policy,
                             report.distanceOneFraction());
  };

  // 1. single-list sequential build (the common case).
  for (const auto& [policy, name] :
       {std::pair{ConsPolicy::kNaive, "naive"},
        std::pair{ConsPolicy::kClever, "clever"}}) {
    LinearizingHeap heap(policy);
    heap.buildList(2000);
    addRow("sequential build", name, heap.measureDistances());
  }

  // 2. interleaved builds (allocation streams collide).
  for (const auto& [policy, name] :
       {std::pair{ConsPolicy::kNaive, "naive"},
        std::pair{ConsPolicy::kClever, "clever"}}) {
    support::Rng local(7);
    addRow("interleaved x8", name, interleavedBuild(policy, local));
  }

  // 3. linearization, then destructive erosion.
  {
    LinearizingHeap heap(ConsPolicy::kNaive);
    support::Rng local(11);
    // Fragment the store first so the rebuilt list scatters.
    std::vector<LinearizingHeap::CellRef> junk;
    for (int i = 0; i < 512; ++i) {
      junk.push_back(heap.cons(LinearizingHeap::Word::atom(0),
                               LinearizingHeap::Word::atom(~0ull)));
    }
    for (std::size_t i = 0; i < junk.size(); i += 2) heap.free(junk[i]);
    LinearizingHeap::CellRef head = heap.buildList(1000);
    addRow("fragmented build", "naive", heap.measureList(head));

    head = heap.linearize(head);
    addRow("after linearize", "-", heap.measureList(head));

    // Erode: splice 50 fresh cells into random positions.
    for (int edit = 0; edit < 50; ++edit) {
      LinearizingHeap::CellRef cursor = head;
      const auto hops = local.below(900);
      for (std::uint64_t h = 0; h < hops; ++h) {
        const auto next = heap.cdr(cursor);
        if (!next.isPointer) break;
        cursor = static_cast<LinearizingHeap::CellRef>(next.payload);
      }
      const auto spliced =
          heap.cons(LinearizingHeap::Word::atom(9999), heap.cdr(cursor));
      heap.setCdr(cursor, LinearizingHeap::Word::pointer(spliced));
    }
    addRow("after 50 splices", "-", heap.measureList(head));
  }

  std::fputs(table.render().c_str(), stdout);
  std::puts("\npaper (via Clark): naive ~= clever; linearization yields "
            "~100% distance-1 cdrs;\nlinearized lists stay well "
            "linearized under modification.");
  return bench.finish(0);
}
