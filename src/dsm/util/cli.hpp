// Minimal command-line flag parsing for the examples and benchmark drivers.
// Flags have the form --name=value or --name value. Unknown flags are kept
// but never read, so a misspelt flag silently leaves its default in place.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dsm::util {

/// Parsed command line: typed access with defaults.
class Cli {
 public:
  /// Parses argv; throws util::CheckError on malformed input.
  Cli(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string getString(const std::string& name, const std::string& dflt) const;
  std::int64_t getInt(const std::string& name, std::int64_t dflt) const;
  std::uint64_t getUint(const std::string& name, std::uint64_t dflt) const;
  double getDouble(const std::string& name, double dflt) const;
  bool getBool(const std::string& name, bool dflt) const;

  /// Comma-separated integer list, e.g. --n=3,5,7.
  std::vector<std::uint64_t> getUintList(
      const std::string& name, const std::vector<std::uint64_t>& dflt) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::optional<std::string> find(const std::string& name) const;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace dsm::util
