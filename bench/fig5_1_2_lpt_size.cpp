// Fig 5.1 — Peak LPT Usage Behaviour (the knee curve), and
// Fig 5.2 — Maximum LPT Occupancy Levels over many reseeded runs.
//
// Paper shape: each trace's peak-usage-vs-table-size plot is a slope-1
// line through the origin joined to a horizontal line at the knee (the
// minimum overflow-free LPT size); true overflow needs only a few hundred
// entries even on the longest trace; 2K-4K entries make even pseudo
// overflow rare. Lyra's knee interval over reseeded runs stands out
// (larger working set), and is NOT explained by trace length alone.
//
// Every simulator run here is an independent pure function of (config,
// preprocessed trace), so the (trace x size) and (trace x seed) grids fan
// out through support::runSweep behind --jobs N. Results land in slots
// indexed by grid position and are reduced/printed serially in grid order,
// so the output is byte-identical for every job count.
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "small/simulator.hpp"
#include "support/parallel.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "trace/preprocess.hpp"

int main(int argc, char** argv) {
  using namespace small;
  benchutil::BenchRun bench("fig5_1_2_lpt_size", argc, argv,
                            {{"--workload"}, {"--quick"}});
  const bool fromWorkloads = bench.has("--workload");
  const bool quick = bench.has("--quick");
  const int jobs = bench.jobs();

  const auto pres = benchutil::prepareChapter5(
      fromWorkloads, jobs, bench.traceRoundTrip());

  // --- Fig 5.1: peak usage vs table size, one seed ---
  std::puts("Fig 5.1: peak LPT usage vs table size (Compress-One)");
  support::TextTable kneeTable(
      {"Trace", "smallest no-true-overflow", "knee (no overflow at all)"});

  // Stage 1: one unconstrained run per trace gives the knees directly.
  const std::vector<std::uint32_t> knees =
      support::runSweep<std::uint32_t>(pres, jobs, [](const auto& named,
                                                      std::size_t) {
        core::SimConfig big;
        big.tableSize = 1u << 18;
        big.seed = 42;
        return core::simulateTrace(big, named.pre).peakOccupancy;
      });

  // Stage 2: the (trace x size fraction) grid, one task per cell.
  constexpr double kFractions[] = {0.1, 0.2,  0.35, 0.5, 0.65, 0.8,
                                   0.9, 1.0,  1.1,  1.3, 1.6,  2.0};
  constexpr std::size_t kFractionCount = std::size(kFractions);
  struct Cell {
    std::uint32_t size = 0;
    std::uint32_t peak = 0;
    bool trueOverflow = false;
  };
  const std::vector<Cell> cells = support::runSweep<Cell>(
      pres.size() * kFractionCount, jobs, [&](std::size_t id) {
        const std::size_t traceIdx = id / kFractionCount;
        const double fraction = kFractions[id % kFractionCount];
        Cell cell;
        cell.size = std::max<std::uint32_t>(
            8, static_cast<std::uint32_t>(knees[traceIdx] * fraction));
        core::SimConfig config;
        config.tableSize = cell.size;
        config.seed = 42;
        const core::SimResult result =
            core::simulateTrace(config, pres[traceIdx].pre);
        cell.peak = result.peakOccupancy;
        cell.trueOverflow = result.trueOverflowOccurred;
        return cell;
      });

  std::vector<support::Series> curves;
  for (std::size_t t = 0; t < pres.size(); ++t) {
    support::Series series{pres[t].name, {}, {}};
    std::uint32_t smallestNoTrue = 0;
    for (std::size_t f = 0; f < kFractionCount; ++f) {
      const Cell& cell = cells[t * kFractionCount + f];
      series.add(cell.size, cell.peak);
      if (smallestNoTrue == 0 && !cell.trueOverflow) {
        smallestNoTrue = cell.size;
      }
    }
    kneeTable.addRow({pres[t].name, std::to_string(smallestNoTrue),
                      std::to_string(knees[t])});
    bench.report().addFigure("fig5_1.knee." + pres[t].name,
                             static_cast<std::uint64_t>(knees[t]));
    bench.report().addFigure("fig5_1.smallest_no_true_overflow." +
                                 pres[t].name,
                             static_cast<std::uint64_t>(smallestNoTrue));
    curves.push_back(std::move(series));
  }
  std::fputs(support::asciiPlot(curves).c_str(), stdout);
  std::fputs(kneeTable.render().c_str(), stdout);
  std::puts("paper: slope-1 segment (peak == size while overflowing) "
            "joined to a plateau at the knee.\n");

  // --- Fig 5.2: knee intervals over reseeded runs ---
  const int seeds = quick ? 10 : 60;
  std::printf("Fig 5.2: maximum LPT occupancy intervals over %d reseeded "
              "runs\n", seeds);
  support::TextTable intervals(
      {"Trace", "min knee", "mean", "max knee", "95% ci half-width"});
  // Per-task obs shards: each reseeded run contributes its counters to
  // its own id's shard; merged metrics are identical at any --jobs.
  const std::size_t taskCount =
      pres.size() * static_cast<std::size_t>(seeds);
  obs::ShardSet shards(taskCount, bench.obsEnabled());
  std::vector<std::uint32_t> peaks(taskCount);
  obs::runIndexedObs(taskCount, jobs, shards, [&](std::size_t id) {
    const std::size_t traceIdx = id / seeds;
    const int seed = static_cast<int>(id % seeds) + 1;
    core::SimConfig config;
    config.tableSize = 1u << 18;
    config.seed = static_cast<std::uint64_t>(seed) * 7919;
    const core::SimResult result =
        core::simulateTrace(config, pres[traceIdx].pre);
    benchutil::contributeSimResult(shards.registryAt(id), result);
    peaks[id] = result.peakOccupancy;
  });
  bench.collectShards(shards);
  for (std::size_t t = 0; t < pres.size(); ++t) {
    // Accumulate in seed order: RunningStats' floating-point state is then
    // independent of worker scheduling.
    support::RunningStats knees52;
    for (int s = 0; s < seeds; ++s) knees52.add(peaks[t * seeds + s]);
    intervals.addRow({pres[t].name, support::formatDouble(knees52.min(), 0),
                      support::formatDouble(knees52.mean(), 1),
                      support::formatDouble(knees52.max(), 0),
                      support::formatDouble(
                          knees52.confidenceHalfWidth95(), 2)});
    bench.report().addFigure("fig5_2.mean_knee." + pres[t].name,
                             knees52.mean());
  }
  std::fputs(intervals.render().c_str(), stdout);
  std::puts("paper: Lyra's interval stands out (intrinsically larger "
            "working set); PlaGen and\nEditor behave alike despite an "
            "order of magnitude difference in length.");
  return bench.finish(0);
}
