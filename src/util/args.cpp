#include "util/args.hpp"

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace psc::util {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::add_option(const std::string& key,
                           const std::string& default_value,
                           const std::string& help) {
  options_[key] = Option{default_value, help, false};
  declaration_order_.push_back(key);
}

void ArgParser::add_flag(const std::string& key, const std::string& help) {
  options_[key] = Option{"0", help, true};
  declaration_order_.push_back(key);
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string key = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
      has_value = true;
    }
    const auto it = options_.find(key);
    if (it == options_.end()) {
      std::cerr << "unknown option --" << key << "\n" << usage();
      return false;
    }
    if (it->second.is_flag) {
      // Move-assigned from a temporary: GCC 12's -Wrestrict misfires on
      // std::string::operator=(const char*) here.
      values_[key] = std::string("1");
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        std::cerr << "option --" << key << " expects a value\n" << usage();
        return false;
      }
      value = argv[++i];
    }
    values_[key] = std::move(value);
  }
  return true;
}

std::string ArgParser::get(const std::string& key) const {
  if (const auto it = values_.find(key); it != values_.end()) return it->second;
  const auto it = options_.find(key);
  if (it == options_.end()) {
    throw std::invalid_argument("undeclared option: " + key);
  }
  return it->second.default_value;
}

std::int64_t ArgParser::get_int(const std::string& key) const {
  return std::strtoll(get(key).c_str(), nullptr, 10);
}

double ArgParser::get_double(const std::string& key) const {
  return std::strtod(get(key).c_str(), nullptr);
}

bool ArgParser::get_flag(const std::string& key) const {
  const std::string v = get(key);
  return v == "1" || v == "true" || v == "yes";
}

std::string ArgParser::usage() const {
  std::ostringstream out;
  out << program_ << " -- " << description_ << "\n\noptions:\n";
  for (const auto& key : declaration_order_) {
    const Option& opt = options_.at(key);
    out << "  --" << key;
    if (!opt.is_flag) out << "=<value> (default: " << opt.default_value << ")";
    out << "\n      " << opt.help << "\n";
  }
  out << "  --help\n      show this message\n";
  return out.str();
}

}  // namespace psc::util
