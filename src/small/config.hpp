// Simulator configuration (§5.2.1).
//
// "For a given simulation run, 6 simulator parameters can be specified:
//  (1) TableSize, (2) OverflowPolicy, (3) ArgProb, (4) LocProb,
//  (5) BindProb, and (6) ReadProb."
#pragma once

#include <cstdint>

namespace small::core {

/// Pseudo-overflow compression strategy (§4.3.2.3, §5.2.3).
enum class CompressionPolicy : std::uint8_t {
  kCompressOne,  ///< free just enough table space for the immediate need
  kCompressAll,  ///< compress every compressible pair at overflow time
  kHybrid,       ///< Compress-One, escalating to Compress-All when pseudo
                 ///< overflows become frequent (§5.2.3's hybrid scheme)
};

/// What happens to an entry's children when its reference count reaches
/// zero (§4.3.2.1 / Table 5.2's Refops-vs-RecRefops comparison).
enum class ReclaimPolicy : std::uint8_t {
  kLazy,       ///< children decremented only when the entry is reused
  kRecursive,  ///< children decremented immediately (unbounded work)
};

/// The EP model's argument-selection probabilities. The defaults are the
/// values §5.2.1 reports its runs used: (0.6, 0.3, 0.01, 0.01).
struct EpProbabilities {
  double argProb = 0.60;   ///< primitive argument is a function argument
  double locProb = 0.30;   ///< ... is a local variable
  double bindProb = 0.01;  ///< return value bound to a variable (vs pushed)
  double readProb = 0.01;  ///< variable was re-read since last access
};

/// Parameters (3)-(6) are the inherited EpProbabilities.
struct SimConfig : EpProbabilities {
  std::uint32_t tableSize = 4096;
  CompressionPolicy compression = CompressionPolicy::kCompressOne;
  ReclaimPolicy reclaim = ReclaimPolicy::kLazy;

  /// Split reference counts (§5.2.4 / Table 5.3): stack references are
  /// counted in an EP-side table; the LPT keeps internal counts + StackBit.
  bool splitRefCounts = false;

  /// Drive the comparison data cache alongside the LPT (§5.2.5).
  bool driveCache = false;
  std::uint64_t cacheEntries = 0;   ///< 0 = same as tableSize (Table 5.4)
  std::uint32_t cacheLineSize = 1;  ///< cells per line (Fig 5.5 sweeps this)

  /// Hybrid policy: escalate to Compress-All if this many pseudo overflows
  /// occur within one window of `hybridWindow` primitive events.
  std::uint32_t hybridThreshold = 4;
  std::uint64_t hybridWindow = 256;

  std::uint64_t seed = 1;
};

}  // namespace small::core
