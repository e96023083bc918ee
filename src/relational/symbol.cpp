#include "relational/symbol.hpp"

#include <deque>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

namespace ccsql {
namespace {

/// Process-wide intern pool.  A deque keeps the stored strings at stable
/// addresses so string_views handed out by Symbol::str() never dangle.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  std::uint32_t intern(std::string_view text) {
    {
      std::shared_lock lock(mu_);
      if (auto it = index_.find(text); it != index_.end()) return it->second;
    }
    std::unique_lock lock(mu_);
    if (auto it = index_.find(text); it != index_.end()) return it->second;
    strings_.emplace_back(text);
    const auto id = static_cast<std::uint32_t>(strings_.size() - 1);
    index_.emplace(strings_.back(), id);
    return id;
  }

  std::uint32_t lookup(std::string_view text) const noexcept {
    std::shared_lock lock(mu_);
    if (auto it = index_.find(text); it != index_.end()) return it->second;
    return 0;
  }

  std::string_view str(std::uint32_t id) const noexcept {
    std::shared_lock lock(mu_);
    return strings_[id];
  }

 private:
  Pool() {
    strings_.emplace_back("NULL");
    index_.emplace(strings_.back(), 0u);
  }

  mutable std::shared_mutex mu_;
  std::deque<std::string> strings_;
  // Keys view into strings_, which never relocates entries.
  std::unordered_map<std::string_view, std::uint32_t> index_;
};

}  // namespace

Symbol Symbol::intern(std::string_view text) {
  if (text.empty() || text == "NULL") return Symbol{};
  Symbol s;
  s.id_ = Pool::instance().intern(text);
  return s;
}

Symbol Symbol::lookup(std::string_view text) noexcept {
  Symbol s;
  s.id_ = Pool::instance().lookup(text);
  return s;
}

std::string_view Symbol::str() const noexcept {
  return Pool::instance().str(id_);
}

}  // namespace ccsql
