// One-call experiment report: renders every §4/§5 aggregate from a
// completed run as a human-readable text document (the library's equivalent
// of the paper's evaluation section).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "analysis/classify.h"
#include "analysis/passive.h"

namespace cd::analysis {

/// Renders the full measurement report: DSAV prevalence, category
/// effectiveness, open/closed, forwarding, port-range bands, zero-range and
/// low-range drill-downs, the top-10 country table when `geo` is populated,
/// and the §5.2.2 passive cross-check when `passive` is non-empty. Pure
/// function of its inputs; safe to call repeatedly.
[[nodiscard]] std::string render_report(
    const Records& records, std::span<const cd::scanner::TargetInfo> targets,
    const GeoDb& geo, const PassiveCapture& passive,
    const std::vector<cd::net::IpAddr>& public_dns_addrs);

}  // namespace cd::analysis
