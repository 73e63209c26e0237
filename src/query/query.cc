#include "query/query.h"

#include "common/string_util.h"

namespace condensa::query {

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kClassify: return "classify";
    case QueryKind::kAggregate: return "aggregate";
    case QueryKind::kRegenerate: return "regenerate";
  }
  return "unknown";
}

Status RangePredicate::Validate(std::size_t dim) const {
  for (const Bound& bound : bounds) {
    if (bound.dim >= dim) {
      return InvalidArgumentError(
          "range bound names dimension " + std::to_string(bound.dim) +
          " but the data has " + std::to_string(dim) + " dimensions");
    }
    if (!(bound.lo <= bound.hi)) {
      return InvalidArgumentError(
          "range bound on dimension " + std::to_string(bound.dim) +
          " has lo > hi (or a NaN endpoint)");
    }
  }
  return OkStatus();
}

namespace {

Status ParseBound(std::string_view part, RangePredicate::Bound* bound) {
  std::string_view rest = part;
  const std::string_view dim_text = NextField(&rest, ':');
  const std::string_view lo_text = NextField(&rest, ':');
  const std::string_view hi_text = rest;
  if (dim_text.empty() || lo_text.empty() || hi_text.empty()) {
    return InvalidArgumentError("bad range bound '" + std::string(part) +
                                "' (want dim:lo:hi)");
  }
  if (!ParseSize(dim_text, &bound->dim)) {
    return InvalidArgumentError("bad range dimension '" +
                                std::string(dim_text) + "'");
  }
  if (!ParseDouble(lo_text, &bound->lo)) {
    return InvalidArgumentError("bad range lower bound '" +
                                std::string(lo_text) + "'");
  }
  if (!ParseDouble(hi_text, &bound->hi)) {
    return InvalidArgumentError("bad range upper bound '" +
                                std::string(hi_text) + "'");
  }
  return OkStatus();
}

}  // namespace

StatusOr<RangePredicate> ParseRangeSpec(std::string_view spec) {
  RangePredicate range;
  if (spec.empty()) {
    return range;
  }
  // NextField leaves nothing to parse after a trailing comma, so catch it
  // here instead of silently accepting "0:1:2,".
  if (spec.back() == ',') {
    return InvalidArgumentError("trailing ',' in range spec '" +
                                std::string(spec) + "'");
  }
  while (!spec.empty()) {
    RangePredicate::Bound bound;
    CONDENSA_RETURN_IF_ERROR(ParseBound(NextField(&spec, ','), &bound));
    range.bounds.push_back(bound);
  }
  return range;
}

}  // namespace condensa::query
