// IP-to-country mapping (the paper's MaxMind GeoLite2 stand-in).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <unordered_map>

#include "net/ip.h"

namespace cd::analysis {

/// Longest-prefix-match country database. ditl::geo_db fills it from the plan;
/// the country tables (paper Tables 1-2) consume it.
class GeoDb {
 public:
  void add(const cd::net::Prefix& prefix, std::string country);

  [[nodiscard]] std::optional<std::string> country_of(
      const cd::net::IpAddr& addr) const;

  [[nodiscard]] std::size_t size() const { return count_; }

 private:
  using LengthMap =
      std::map<int,
               std::unordered_map<cd::net::U128, std::string, cd::net::U128Hash>,
               std::greater<int>>;
  LengthMap v4_;
  LengthMap v6_;
  std::size_t count_ = 0;
};

}  // namespace cd::analysis
