#include "trace/synthetic.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <vector>

#include "support/distributions.hpp"
#include "support/error.hpp"

namespace small::trace {

namespace {

using support::EmpiricalDistribution;
using support::Rng;

/// A synthetic list object: shape plus memoized car/cdr derivations so that
/// repeated access to the same object is structurally consistent.
struct SyntheticObject {
  std::uint64_t fp = 0;
  std::uint32_t n = 0;
  std::uint32_t p = 0;
  bool isList = true;

  // Memoized decomposition. 0 means "not derived yet"; fingerprints are
  // allocated from 1.
  bool decomposed = false;
  bool firstIsAtom = true;
  std::uint32_t subN = 0;  ///< shape of the first element when it is a list
  std::uint32_t subP = 0;
  std::uint64_t carChild = 0;
  std::uint64_t cdrChild = 0;
};

/// A locale: a family of related references rooted at one object, the
/// generator's unit of structural locality.
struct Locale {
  std::uint64_t rootFp = 0;
  std::deque<std::uint64_t> recent;  ///< recently touched members
  bool isCore = false;
};

class Generator {
 public:
  Generator(const WorkloadProfile& profile, Rng& rng)
      : profile_(profile),
        rng_(rng),
        // Root shapes are sampled above the target mean because derived
        // children shrink. Cons-heavy profiles still overshoot the
        // measured argument means (a cons's shape is the sum of its
        // operands', so accumulators snowball); that residual deviation
        // is recorded in EXPERIMENTS.md rather than fought with unstable
        // compensation terms.
        rootN_(support::makeGeometricTail(
            meanToRatio(profile.meanN * 1.35), 512)),
        rootP_(support::makeGeometricTail(
            meanToRatio(profile.meanP * 1.25 + 1.0), 256)) {
    functionIds_.fill(kUninterned);
  }

  Trace run() {
    Trace trace;
    trace.name = profile_.name;
    // Seed the core locales with read-in lists.
    for (std::uint32_t i = 0; i < profile_.coreLocales; ++i) {
      emitRead(trace, /*core=*/true);
    }
    if (locales_.empty()) {
      throw support::Error("synthetic: no locales created");
    }
    currentLocale_ = 0;

    // emitPrimitive may add a second primitive (a locale-switch read), so
    // count through the shared emitted_ counter and leave headroom.
    while (emitted_ < profile_.primitiveCalls) {
      maybeFunctionEvents(trace);
      emitPrimitive(trace,
                    /*allowNewLocale=*/emitted_ + 2 <=
                        profile_.primitiveCalls);
    }
    // Unwind any open function calls so the trace is balanced.
    while (!callStack_.empty()) {
      Event exit;
      exit.kind = EventKind::kFunctionExit;
      exit.functionId = callStack_.back();
      callStack_.pop_back();
      trace.append(std::move(exit));
    }
    return trace;
  }

 private:
  static double meanToRatio(double mean) {
    // Geometric over {1,2,...} with success prob q has mean 1/q; the tail
    // ratio is 1-q. Clamp to a sane range.
    const double q = 1.0 / std::max(1.05, mean);
    return std::clamp(1.0 - q, 0.05, 0.995);
  }

  SyntheticObject& object(std::uint64_t fp) { return objects_.at(fp - 1); }

  std::uint64_t newObject(std::uint32_t n, std::uint32_t p, bool isList) {
    const std::uint64_t fp = nextFp_++;
    SyntheticObject obj;
    obj.fp = fp;
    obj.n = n;
    obj.p = p;
    obj.isList = isList;
    objects_.push_back(obj);
    return fp;
  }

  ObjectRecord record(std::uint64_t fp) {
    if (fp == 0) return ObjectRecord{};  // atom placeholder
    const SyntheticObject& obj = object(fp);
    ObjectRecord rec;
    rec.fingerprint = obj.fp;
    rec.n = obj.n;
    rec.p = obj.p;
    rec.isList = obj.isList;
    return rec;
  }

  /// Ensure the object's first-element decision and child shapes exist.
  void decompose(SyntheticObject& obj) {
    if (obj.decomposed) return;
    obj.decomposed = true;
    const std::uint32_t weight = obj.n + obj.p;
    if (weight == 0) {
      obj.firstIsAtom = true;
      return;
    }
    // The first element is a sublist with probability p/(n+p).
    obj.firstIsAtom =
        rng_.below(weight) < obj.n || obj.p == 0;
    if (!obj.firstIsAtom) {
      // Carve a sublist out of the parent's shape.
      obj.subP = static_cast<std::uint32_t>(rng_.below(obj.p));
      const std::uint32_t maxSubN = std::max<std::uint32_t>(obj.n, 1);
      obj.subN = 1 + static_cast<std::uint32_t>(
                         rng_.below(std::max<std::uint32_t>(maxSubN / 2, 1)));
      obj.subN = std::min(obj.subN, obj.n);
    }
  }

  /// The car of `fp`: memoized; may be an atom (returns 0). When
  /// `preferList` is set and the object is not yet decomposed, the first
  /// element is forced to be a sublist — used by chain planning so an
  /// intended chain has a list result to hang off.
  std::uint64_t carOf(std::uint64_t fp, bool preferList = false) {
    {
      SyntheticObject& obj = object(fp);
      if (obj.carChild != 0) return obj.carChild;
      if (!obj.decomposed && preferList && obj.n >= 2 && obj.p >= 1) {
        obj.decomposed = true;
        obj.firstIsAtom = false;
        // Forced sublists stay modest, or the chain-planning bias would
        // inflate the measured n/p means far past Table 3.1's.
        obj.subP = static_cast<std::uint32_t>(
            rng_.below(std::min<std::uint32_t>(obj.p, 3)));
        obj.subN = 1 + static_cast<std::uint32_t>(rng_.below(
                           std::max<std::uint32_t>(
                               std::min<std::uint32_t>(obj.n / 2, 8), 1)));
        obj.subN = std::min(obj.subN, obj.n);
      }
      decompose(obj);
      if (obj.firstIsAtom) return 0;  // atom result
    }
    // newObject may reallocate objects_, so re-resolve after allocation.
    const std::uint32_t subN = object(fp).subN;
    const std::uint32_t subP = object(fp).subP;
    const std::uint64_t child = newObject(subN, subP, true);
    object(fp).carChild = child;
    return child;
  }

  /// The cdr of `fp`: memoized; nil (atom, returns 0) when exhausted.
  std::uint64_t cdrOf(std::uint64_t fp) {
    std::uint32_t n = 0;
    std::uint32_t p = 0;
    {
      SyntheticObject& obj = object(fp);
      if (obj.cdrChild != 0) return obj.cdrChild;
      decompose(obj);
      n = obj.n;
      p = obj.p;
      if (obj.firstIsAtom) {
        if (n == 0) return 0;
        n -= 1;
      } else {
        n -= std::min(n, obj.subN);
        p -= std::min(p, obj.subP + 1);
      }
    }
    if (n + p == 0) return 0;  // rest is nil
    const std::uint64_t child = newObject(n, p, true);
    object(fp).cdrChild = child;
    return child;
  }

  Locale& locale() { return locales_[currentLocale_]; }

  void touchLocale(std::uint64_t fp) {
    Locale& loc = locale();
    loc.recent.push_back(fp);
    if (loc.recent.size() > 32) loc.recent.pop_front();
  }

  void maybeSwitchLocale(Trace& trace, bool allowNewLocale) {
    if (rng_.chance(profile_.stayProb)) return;
    if ((!allowNewLocale || rng_.chance(profile_.coreSwitchProb)) &&
        profile_.coreLocales > 0) {
      // Return to a uniformly chosen *core* locale — the program's
      // long-lived working structures (the seeding made cores the first
      // coreLocales entries). Uniform choice, rather than LRU-biased,
      // spreads references across the whole core set so the Fig 3.7
      // stack-depth distribution has mass beyond the top few sets.
      currentLocale_ = rng_.below(profile_.coreLocales);
    } else {
      emitRead(trace, /*core=*/false);
      return;  // emitRead already switched and reset the chain
    }
    // A working-set change breaks the primitive chain: the previous
    // result belongs to the locale we just left, and chaining across the
    // switch would structurally merge unrelated locales.
    lastResult_ = 0;
  }

  /// Pick a member of the current locale, preferring recent ones; `avoid`
  /// (when nonzero) is skipped if any alternative exists — the generator
  /// uses it to keep *unintended* chains off the books, so that the
  /// measured chaining rate tracks the profile's.
  std::uint64_t pickFromLocale(std::uint64_t avoid = 0) {
    Locale& loc = locale();
    std::uint64_t candidate;
    if (!loc.recent.empty() && rng_.chance(0.8)) {
      // Mostly the most recent members.
      std::size_t back = 0;
      while (back + 1 < loc.recent.size() && rng_.chance(0.45)) ++back;
      candidate = loc.recent[loc.recent.size() - 1 - back];
    } else {
      candidate = loc.rootFp;
    }
    if (candidate != avoid) return candidate;
    // Deterministic avoidance: the most recent member that differs, else
    // the root. Never reach into another locale — that would structurally
    // merge unrelated families; in a locale holding nothing but `avoid`
    // the accidental chain is the lesser distortion.
    for (std::size_t i = loc.recent.size(); i-- > 0;) {
      if (loc.recent[i] != avoid) return loc.recent[i];
    }
    return loc.rootFp;
  }

  void emitRead(Trace& trace, bool core) {
    const auto n = static_cast<std::uint32_t>(rootN_.sample(rng_));
    const auto p = static_cast<std::uint32_t>(rootP_.sample(rng_) - 1);
    const std::uint64_t fp = newObject(n, p, true);
    Event event;
    event.kind = EventKind::kPrimitive;
    event.primitive = Primitive::kRead;
    event.result = record(fp);
    trace.append(std::move(event));
    ++emitted_;
    Locale loc;
    loc.rootFp = fp;
    loc.isCore = core;
    loc.recent.push_back(fp);
    locales_.push_back(std::move(loc));
    currentLocale_ = locales_.size() - 1;
    // The fresh object is the previous result now; chains may hang off it
    // (it belongs to the new current locale).
    lastResult_ = fp;
  }

  void maybeFunctionEvents(Trace& trace) {
    if (!rng_.chance(profile_.functionCallsPerPrimitive)) return;
    const bool canCall = callStack_.size() < profile_.maxCallDepth;
    const bool canReturn = !callStack_.empty();
    const bool doCall = canCall && (!canReturn || rng_.chance(0.55));
    if (doCall) {
      Event enter;
      enter.kind = EventKind::kFunctionEnter;
      enter.functionId = functionId(trace, rng_.below(kFunctionNames));
      std::uint8_t args = 0;
      while (args < 6 &&
             rng_.chance(profile_.meanFunctionArgs /
                         (profile_.meanFunctionArgs + 1.0))) {
        ++args;
      }
      enter.argCount = args;
      callStack_.push_back(enter.functionId);
      trace.append(std::move(enter));
    } else if (canReturn) {
      Event exit;
      exit.kind = EventKind::kFunctionExit;
      exit.functionId = callStack_.back();
      callStack_.pop_back();
      trace.append(std::move(exit));
    }
  }

  Primitive choosePrimitive() {
    const double u = rng_.uniform();
    double acc = profile_.carFrac;
    if (u < acc) return Primitive::kCar;
    acc += profile_.cdrFrac;
    if (u < acc) return Primitive::kCdr;
    acc += profile_.consFrac;
    if (u < acc) return Primitive::kCons;
    acc += profile_.rplacFrac;
    if (u < acc) {
      return rng_.chance(0.5) ? Primitive::kRplaca : Primitive::kRplacd;
    }
    // Remainder: the low-frequency primitives. Reads are rare — the
    // workloads load their data once, so almost all of the "other" bucket
    // touches existing structure.
    const double v = rng_.uniform();
    if (v < 0.34) return Primitive::kAtom;
    if (v < 0.68) return Primitive::kNull;
    if (v < 0.88) return Primitive::kEqual;
    if (v < 0.98) return Primitive::kWrite;
    return Primitive::kRead;
  }

  void emitPrimitive(Trace& trace, bool allowNewLocale) {
    const Primitive primitive = choosePrimitive();
    if (primitive == Primitive::kRead) {
      emitRead(trace, false);
      return;
    }

    maybeSwitchLocale(trace, allowNewLocale);

    Event event;
    event.kind = EventKind::kPrimitive;
    event.primitive = primitive;

    auto chooseArg = [&](double chainProb) -> std::uint64_t {
      // A chain needs the previous result to be a list, which caps the
      // achievable rate below the requested fraction; the 1.35 overdrive
      // compensates (calibrated against Table 3.2, see EXPERIMENTS.md).
      const double attempt = std::min(1.0, chainProb * 1.35);
      if (lastResult_ != 0 && rng_.chance(attempt)) return lastResult_;
      // Not chaining: avoid accidentally picking the previous result, or
      // the preprocessing pass would count a chain anyway.
      return pickFromLocale(lastResult_);
    };

    switch (primitive) {
      case Primitive::kCar:
      case Primitive::kCdr: {
        const std::uint64_t arg = chooseArg(primitive == Primitive::kCar
                                                ? profile_.carChainFrac
                                                : profile_.cdrChainFrac);
        event.args.push_back(record(arg));
        // Chain planning: decide now whether the *next* access should
        // chain off this result; if so, bias the decomposition so the
        // result is a list the next call can consume.
        const bool planChain = rng_.chance(
            std::max(profile_.carChainFrac, profile_.cdrChainFrac));
        const std::uint64_t child = primitive == Primitive::kCar
                                        ? carOf(arg, planChain)
                                        : cdrOf(arg);
        event.result = record(child);
        if (child != 0) touchLocale(child);
        lastResult_ = child;
        break;
      }
      case Primitive::kCons: {
        const std::uint64_t head = chooseArg(0.5);
        const std::uint64_t tail = pickFromLocale();
        event.args.push_back(record(head));
        event.args.push_back(record(tail));
        // Copy shapes out before newObject() can reallocate objects_.
        const std::uint32_t hn = object(head).n, hp = object(head).p;
        const std::uint32_t tn = object(tail).n, tp = object(tail).p;
        const std::uint64_t fresh = newObject(hn + tn, hp + tp + 1, true);
        // The new cons is structurally related to both operands.
        object(fresh).carChild = head;
        object(fresh).cdrChild = tail;
        object(fresh).decomposed = true;
        object(fresh).firstIsAtom = false;
        event.result = record(fresh);
        // Giant accumulators are built but rarely re-passed whole as
        // primitive arguments; keeping them out of the hot set stops the
        // measured shape means from snowballing past Table 3.1's.
        if (hn + tn <= 4 * profile_.meanN &&
            hp + tp <= 4 * profile_.meanP) {
          touchLocale(fresh);
        }
        lastResult_ = fresh;
        break;
      }
      case Primitive::kRplaca:
      case Primitive::kRplacd: {
        const std::uint64_t target = chooseArg(0.2);
        const std::uint64_t value = pickFromLocale();
        event.args.push_back(record(target));
        event.args.push_back(record(value));
        // Destructive update: the object's derivation memo changes.
        SyntheticObject& obj = object(target);
        if (primitive == Primitive::kRplaca) {
          obj.carChild = value;
        } else {
          obj.cdrChild = value;
        }
        obj.decomposed = true;
        obj.firstIsAtom = false;
        event.result = record(target);
        touchLocale(target);
        lastResult_ = target;
        break;
      }
      case Primitive::kAtom:
      case Primitive::kNull:
      case Primitive::kWrite: {
        const std::uint64_t arg = chooseArg(0.3);
        event.args.push_back(record(arg));
        event.result = ObjectRecord{};  // t/nil — an atom
        lastResult_ = 0;
        break;
      }
      case Primitive::kEqual: {
        event.args.push_back(record(chooseArg(0.3)));
        event.args.push_back(record(pickFromLocale()));
        event.result = ObjectRecord{};
        lastResult_ = 0;
        break;
      }
      case Primitive::kAppend:  // never chosen by choosePrimitive()
      case Primitive::kRead:    // handled above
        break;
    }
    trace.append(std::move(event));
    ++emitted_;
  }

  /// Id of synthetic function `f<k>` in `trace`, interned on the first
  /// draw of k: the same function table, in the same order, as interning
  /// on every call, without building the name each time.
  std::uint32_t functionId(Trace& trace, std::uint64_t k) {
    std::uint32_t& id = functionIds_[k];
    if (id == kUninterned) {
      std::string name = "f";
      name += std::to_string(k);
      id = trace.internFunction(name);
    }
    return id;
  }

  static constexpr std::size_t kFunctionNames = 24;
  static constexpr std::uint32_t kUninterned = ~std::uint32_t{0};

  const WorkloadProfile& profile_;
  Rng& rng_;
  EmpiricalDistribution rootN_;
  EmpiricalDistribution rootP_;

  std::vector<SyntheticObject> objects_;  ///< fingerprint fp at fp - 1
  std::uint64_t nextFp_ = 1;
  std::vector<Locale> locales_;
  std::size_t currentLocale_ = 0;
  std::uint64_t lastResult_ = 0;
  std::uint64_t emitted_ = 0;  ///< primitive events appended so far
  std::vector<std::uint32_t> callStack_;
  std::array<std::uint32_t, kFunctionNames> functionIds_;
};

WorkloadProfile baseProfile(std::string name, std::uint64_t length,
                            double scale) {
  WorkloadProfile profile;
  profile.name = std::move(name);
  profile.primitiveCalls =
      static_cast<std::uint64_t>(static_cast<double>(length) * scale);
  return profile;
}

}  // namespace

WorkloadProfile slangProfile(double scale) {
  WorkloadProfile p = baseProfile("Slang", 19846, scale);
  p.carFrac = 0.28;
  p.cdrFrac = 0.32;
  p.consFrac = 0.30;  // Fig 3.1: Slang has the highest cons share
  p.rplacFrac = 0.02;
  p.meanN = 10.04;
  p.meanP = 1.99;
  p.carChainFrac = 0.5568;
  p.cdrChainFrac = 0.2671;
  p.functionCallsPerPrimitive = 0.55;  // Table 5.1: 620 calls / 2304 prims
  p.maxCallDepth = 14;
  return p;
}

WorkloadProfile plagenProfile(double scale) {
  WorkloadProfile p = baseProfile("PlaGen", 59967, scale);
  p.carFrac = 0.38;
  p.cdrFrac = 0.44;
  p.consFrac = 0.08;
  p.rplacFrac = 0.01;
  p.meanN = 12.40;
  p.meanP = 2.90;
  p.carChainFrac = 0.2668;
  p.cdrChainFrac = 0.4089;
  p.functionCallsPerPrimitive = 0.45;  // Table 5.1: 8173 / 34628
  p.maxCallDepth = 15;
  return p;
}

WorkloadProfile lyraProfile(double scale) {
  WorkloadProfile p = baseProfile("Lyra", 252951, scale);
  p.carFrac = 0.44;
  p.cdrFrac = 0.40;
  p.consFrac = 0.08;
  p.rplacFrac = 0.01;
  p.meanN = 9.70;
  p.meanP = 1.55;
  p.carChainFrac = 0.8275;
  p.cdrChainFrac = 0.6899;
  p.functionCallsPerPrimitive = 0.14;  // Table 5.1: 11907 / 160933
  p.maxCallDepth = 27;
  // Lyra has the largest working set (Figs 3.5/3.6, 5.2).
  p.coreLocales = 14;
  p.stayProb = 0.84;
  return p;
}

WorkloadProfile editorProfile(double scale) {
  WorkloadProfile p = baseProfile("Editor", 33790, scale);
  p.carFrac = 0.33;
  p.cdrFrac = 0.50;
  p.consFrac = 0.07;
  p.rplacFrac = 0.02;
  p.meanN = 74.74;  // Table 3.1: the Editor works on long, deep lists
  p.meanP = 20.98;
  p.carChainFrac = 0.4721;
  p.cdrChainFrac = 0.3872;
  p.functionCallsPerPrimitive = 0.45;  // Table 5.1: 342 / 1437
  p.maxCallDepth = 29;
  p.coreLocales = 5;
  return p;
}

WorkloadProfile pearlProfile(double scale) {
  WorkloadProfile p = baseProfile("Pearl", 1572, scale);
  p.carFrac = 0.30;
  p.cdrFrac = 0.30;
  p.consFrac = 0.10;
  p.rplacFrac = 0.24;  // Fig 3.1: Pearl is rplaca/rplacd heavy
  p.meanN = 13.98;
  p.meanP = 2.79;
  p.carChainFrac = 0.0088;  // Table 3.2: hunks, almost no chaining
  p.cdrChainFrac = 0.0100;
  p.functionCallsPerPrimitive = 0.20;
  p.maxCallDepth = 16;
  return p;
}

WorkloadProfile slangSimProfile() {
  WorkloadProfile p = slangProfile(1.0);
  p.primitiveCalls = 2304;  // Table 5.1
  return p;
}

WorkloadProfile plagenSimProfile() {
  WorkloadProfile p = plagenProfile(1.0);
  p.primitiveCalls = 34628;
  return p;
}

WorkloadProfile lyraSimProfile() {
  WorkloadProfile p = lyraProfile(1.0);
  p.primitiveCalls = 160933;
  return p;
}

WorkloadProfile editorSimProfile() {
  WorkloadProfile p = editorProfile(1.0);
  p.primitiveCalls = 1437;
  return p;
}

Trace generate(const WorkloadProfile& profile, support::Rng& rng) {
  Generator generator(profile, rng);
  return generator.run();
}

}  // namespace small::trace
