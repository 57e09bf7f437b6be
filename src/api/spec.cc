#include "api/spec.h"

#include <bit>
#include <cmath>

namespace pigeonring::api {

namespace {

bool IsIntegral(double v) { return std::floor(v) == v; }

Status BadTau(const IndexSpec& spec, const std::string& requirement) {
  return Status::InvalidArgument("tau=" + std::to_string(spec.tau) +
                                 " is invalid for the " +
                                 DomainName(spec.domain) + " domain: " +
                                 requirement);
}

}  // namespace

const char* DomainName(Domain domain) {
  switch (domain) {
    case Domain::kHamming:
      return "hamming";
    case Domain::kSet:
      return "sets";
    case Domain::kEdit:
      return "strings";
    case Domain::kGraph:
      return "graphs";
  }
  return "unknown";
}

const char* EditFastPathName(EditFastPath mode) {
  switch (mode) {
    case EditFastPath::kAuto:
      return "auto";
    case EditFastPath::kOn:
      return "on";
    case EditFastPath::kOff:
      return "off";
  }
  return "unknown";
}

StatusOr<EditFastPath> ParseEditFastPath(const std::string& name) {
  if (name == "auto") return EditFastPath::kAuto;
  if (name == "on") return EditFastPath::kOn;
  if (name == "off") return EditFastPath::kOff;
  return Status::InvalidArgument("unknown fast-path mode '" + name +
                                 "' (expected auto, on, or off)");
}

StatusOr<Domain> ParseDomain(const std::string& name) {
  if (name == "hamming") return Domain::kHamming;
  if (name == "sets") return Domain::kSet;
  if (name == "strings") return Domain::kEdit;
  if (name == "graphs") return Domain::kGraph;
  return Status::InvalidArgument(
      "unknown domain '" + name +
      "' (expected hamming, sets, strings, or graphs)");
}

Status IndexSpec::Validate() const {
  // Threshold, by domain.
  switch (domain) {
    case Domain::kHamming:
    case Domain::kEdit:
    case Domain::kGraph:
      if (tau < 0 || !IsIntegral(tau)) {
        return BadTau(*this, "expected a non-negative integer distance");
      }
      break;
    case Domain::kSet:
      if (measure == setsim::SetMeasure::kJaccard) {
        if (!(tau > 0.0 && tau <= 1.0)) {
          return BadTau(*this, "Jaccard thresholds live in (0, 1]");
        }
      } else {
        if (tau < 1 || !IsIntegral(tau)) {
          return BadTau(*this, "overlap thresholds are integers >= 1");
        }
      }
      break;
  }

  // The edit / graph chain machinery stores per-box state in one 64-bit
  // mask (tau + 1 boxes); front-run the searchers' PR_CHECK.
  if ((domain == Domain::kEdit || domain == Domain::kGraph) && tau + 1 > 64) {
    return BadTau(*this, "at most 63 (tau + 1 boxes must fit 64 bits)");
  }

  if (chain_length < 1) {
    return Status::InvalidArgument(
        "chain_length=" + std::to_string(chain_length) +
        " is invalid: chain lengths start at 1 (the pigeonhole baseline)");
  }
  if (filter == FilterMode::kBaseline && chain_length != 1) {
    return Status::InvalidArgument(
        "filter=baseline contradicts chain_length=" +
        std::to_string(chain_length) +
        ": the pigeonhole baseline tests single boxes; use chain_length=1 "
        "or filter=ring");
  }

  // Chain length against the number of boxes, where it is known without
  // the dataset. (Hamming's partition count may depend on the data's
  // dimensionality; Db::Open checks it.)
  if (domain == Domain::kSet && chain_length > num_boxes) {
    return Status::InvalidArgument(
        "chain_length=" + std::to_string(chain_length) + " exceeds the " +
        std::to_string(num_boxes) + " boxes of the set instance");
  }
  if ((domain == Domain::kEdit || domain == Domain::kGraph) &&
      chain_length > static_cast<int>(tau) + 1) {
    return Status::InvalidArgument(
        "chain_length=" + std::to_string(chain_length) + " exceeds the " +
        std::to_string(static_cast<int>(tau) + 1) +
        " boxes of a tau=" + std::to_string(static_cast<int>(tau)) +
        " instance");
  }
  if (domain == Domain::kHamming && num_parts > 0 &&
      chain_length > num_parts) {
    return Status::InvalidArgument(
        "chain_length=" + std::to_string(chain_length) + " exceeds the " +
        std::to_string(num_parts) + " partitions");
  }

  // Domain-specific knobs set to contradictory values.
  if (domain != Domain::kSet && measure != setsim::SetMeasure::kJaccard) {
    return Status::InvalidArgument(
        "measure=overlap only applies to the sets domain, not " +
        std::string(DomainName(domain)));
  }
  if (domain == Domain::kSet && num_boxes < 2) {
    return Status::InvalidArgument(
        "num_boxes=" + std::to_string(num_boxes) +
        " is invalid: the set instance needs >= 2 boxes (1 class + the "
        "suffix box)");
  }
  if (domain == Domain::kEdit && kappa < 1) {
    return Status::InvalidArgument("kappa=" + std::to_string(kappa) +
                                   " is invalid: gram length must be >= 1");
  }
  if (domain != Domain::kEdit && edit_fast_path != EditFastPath::kAuto) {
    return Status::InvalidArgument(
        std::string("edit_fast_path=") + EditFastPathName(edit_fast_path) +
        " only applies to the strings domain, not " +
        std::string(DomainName(domain)));
  }
  if (domain == Domain::kHamming && num_parts < 0) {
    return Status::InvalidArgument(
        "num_parts=" + std::to_string(num_parts) +
        " is invalid: expected 0 (auto) or a positive partition count");
  }

  if (num_threads < 0) {
    return Status::InvalidArgument(
        "num_threads=" + std::to_string(num_threads) +
        " is invalid: expected 0 (hardware concurrency) or a positive "
        "count");
  }
  if (chunk < 1) {
    return Status::InvalidArgument("chunk=" + std::to_string(chunk) +
                                   " is invalid: expected >= 1");
  }
  if (delta_compact_threshold < 0) {
    return Status::InvalidArgument(
        "delta_compact_threshold=" + std::to_string(delta_compact_threshold) +
        " is invalid: expected 0 (disabled) or a positive mutation count");
  }
  if (!(delta_compact_ratio >= 0) || !std::isfinite(delta_compact_ratio)) {
    return Status::InvalidArgument(
        "delta_compact_ratio=" + std::to_string(delta_compact_ratio) +
        " is invalid: expected 0 (disabled) or a positive finite fraction");
  }
  return Status::Ok();
}

// Query-time and serving-time fields (chain_length, filter, allocation,
// threading, the delta_compact_* writer knobs) are deliberately excluded:
// they never shape the persisted structures.
uint64_t BuildFingerprint(const IndexSpec& spec) {
  constexpr uint64_t kOffset = 1469598103934665603ULL;
  constexpr uint64_t kPrime = 1099511628211ULL;
  uint64_t h = kOffset;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= kPrime;
    }
  };
  mix(static_cast<uint64_t>(spec.domain));
  mix(std::bit_cast<uint64_t>(spec.tau));
  switch (spec.domain) {
    case Domain::kHamming:
      mix(static_cast<uint64_t>(spec.num_parts));
      break;
    case Domain::kSet:
      mix(static_cast<uint64_t>(spec.measure));
      mix(static_cast<uint64_t>(spec.num_boxes));
      break;
    case Domain::kEdit:
      mix(static_cast<uint64_t>(spec.kappa));
      break;
    case Domain::kGraph:
      mix(spec.partition_seed);
      break;
  }
  return h;
}

Domain QueryDomain(const Query& query) {
  switch (query.index()) {
    case 0:
      return Domain::kHamming;
    case 1:
      return Domain::kSet;
    case 2:
      return Domain::kEdit;
    default:
      return Domain::kGraph;
  }
}

Domain DatasetDomain(const Dataset& dataset) {
  switch (dataset.index()) {
    case 0:
      return Domain::kHamming;
    case 1:
      return Domain::kSet;
    case 2:
      return Domain::kEdit;
    default:
      return Domain::kGraph;
  }
}

}  // namespace pigeonring::api
