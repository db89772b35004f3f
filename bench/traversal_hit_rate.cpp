// §5.3.1 — the guaranteed hit rate of ordered traversals.
//
// Analytic claim: a list with n atoms and p internal parenthesis pairs
// maps to a binary tree with n+p internal nodes and n+p+1 leaves; an
// ordered traversal touches each internal node 3 times and each leaf
// once, costs n+p splits (LPT misses) and gets 3(n+p)+1 hits => a
// guaranteed 75% hit rate (asymptotically), independent of traversal
// order (pre/in/post visit the same contact super-sequence).
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "small/list_processor.hpp"
#include "support/table.hpp"

namespace {

using namespace small;

struct TraversalCounts {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

// Walk the split tree. In the thesis' traversal super-sequence each
// internal node is touched 3 times and each leaf once; in LP-request
// terms that is 4 car/cdr requests per internal node (each request
// touches the returned child), of which exactly the first one splits:
// 1 miss + 3 hits per internal node -> 75% hit rate.
void traverse(core::ListProcessor& lp, core::EntryId node) {
  if (lp.lpt().entry(node).isAtom) return;
  const core::AccessResult car = lp.car(node);   // miss: splits the node
  const core::AccessResult cdr = lp.cdr(node);   // hit
  (void)lp.car(node);                            // hit (revisit car)
  (void)lp.cdr(node);                            // hit (revisit cdr)
  if (car.id != core::kNoEntry) traverse(lp, car.id);
  if (cdr.id != core::kNoEntry) traverse(lp, cdr.id);
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::BenchRun bench("traversal_hit_rate", argc, argv, {});
  std::puts("§5.3.1: ordered-traversal LPT hit rate (guaranteed 75%)");
  support::TextTable table({"n", "p", "splits (=n+p)", "hits",
                            "hit rate", "analytic"});
  support::Rng rng(7);
  for (const auto& [n, p] : std::vector<std::pair<int, int>>{
           {5, 0}, {10, 2}, {20, 5}, {74, 20}, {200, 40}}) {
    core::SimConfig config;
    config.tableSize = 1u << 18;
    core::ListProcessor lp(config, rng);
    const core::EntryId root = lp.readList(
        std::nullopt, static_cast<std::uint32_t>(n),
        static_cast<std::uint32_t>(p));
    traverse(lp, root);
    const double hits = static_cast<double>(lp.stats().hits);
    const double misses = static_cast<double>(lp.stats().splits);
    const double analytic = (3.0 * (n + p) + 1.0) / (4.0 * (n + p) + 1.0);
    table.addRow({std::to_string(n), std::to_string(p),
                  std::to_string(static_cast<long long>(misses)),
                  std::to_string(static_cast<long long>(hits)),
                  support::formatPercent(hits / (hits + misses), 2),
                  support::formatPercent(analytic, 2)});
    bench.report().addFigure("traversal.hit_rate.n" + std::to_string(n) +
                                 ".p" + std::to_string(p),
                             hits / (hits + misses));
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts("\npaper: n+p misses against 3(n+p)+1 hits — 75% guaranteed "
            "even under pseudo overflow\n(leaf entries cannot be merged "
            "away mid-traversal).");
  return bench.finish(0);
}
