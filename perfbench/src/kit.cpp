#include "kit.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ctime>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>

namespace perfbench {

// ---- Histogram --------------------------------------------------------------

void Histogram::record(std::uint64_t ns) {
  if (ns < kDense) {
    if (dense_.empty()) dense_.assign(kDense, 0);
    ++dense_[ns];
    ++dense_count_;
  } else {
    large_.push_back(ns);
    large_sorted_ = false;
  }
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  if (!other.dense_.empty()) {
    if (dense_.empty()) dense_.assign(kDense, 0);
    for (std::size_t i = 0; i < kDense; ++i) dense_[i] += other.dense_[i];
  }
  dense_count_ += other.dense_count_;
  large_.insert(large_.end(), other.large_.begin(), other.large_.end());
  large_sorted_ = large_.empty();
  count_ += other.count_;
}

std::uint64_t Histogram::kth(std::uint64_t k) const {
  if (k < dense_count_) {
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < dense_.size(); ++i) {
      seen += dense_[i];
      if (seen > k) return i;
    }
  }
  if (!large_sorted_) {
    std::sort(large_.begin(), large_.end());
    large_sorted_ = true;
  }
  return large_[k - dense_count_];
}

double Histogram::quantile_ns(double q) const {
  if (count_ == 0) return 0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1);
  const auto lo = static_cast<std::uint64_t>(std::floor(rank));
  const auto hi = static_cast<std::uint64_t>(std::ceil(rank));
  const double a = static_cast<double>(kth(lo));
  if (hi == lo) return a;
  const double b = static_cast<double>(kth(hi));
  return a + (b - a) * (rank - static_cast<double>(lo));
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  return values[lo] +
         (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

// ---- SpanLog ----------------------------------------------------------------

const Histogram* SpanLog::Lane::durations(const char* name) const {
  const auto it = durations_.find(name);
  return it == durations_.end() ? nullptr : &it->second;
}

SpanLog::Lane& SpanLog::lane() {
  std::lock_guard<std::mutex> lock(mu_);
  lanes_.push_back(std::make_unique<Lane>());
  lanes_.back()->lane_id_ = lanes_.size();
  return *lanes_.back();
}

Histogram SpanLog::durations(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  Histogram out;
  for (const auto& lane : lanes_) {
    if (const Histogram* h = lane->durations(name)) out.merge(*h);
  }
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& lane : lanes_) {
    // Child time per parent id; children close before their parent, so
    // one pass over the lane's spans collects it.
    std::unordered_map<std::uint64_t, std::uint64_t> child_ns;
    for (const Span& s : lane->spans_) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (const Span& s : lane->spans_) {
      const std::uint64_t dur = s.end_ns - s.start_ns;
      const auto it = child_ns.find(s.id);
      const std::uint64_t covered = it == child_ns.end() ? 0 : it->second;
      out << "{\"name\":\"" << s.name << "\",\"lane\":" << lane->lane_id_
          << ",\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"start_ns\":" << s.start_ns << ",\"dur_ns\":" << dur
          << ",\"self_ns\":" << (covered < dur ? dur - covered : 0) << "}\n";
    }
    if (lane->dropped_ > 0) {
      out << "{\"lane\":" << lane->lane_id_
          << ",\"dropped_spans\":" << lane->dropped_ << "}\n";
    }
  }
  return static_cast<bool>(out);
}

Scope::Scope(SpanLog::Lane* lane, const char* name) : lane_(lane), name_(name) {
  if (lane_ == nullptr) return;
  id_ = (lane_->lane_id_ << 40) | ++lane_->next_;
  parent_ = lane_->open_.empty() ? 0 : lane_->open_.back();
  lane_->open_.push_back(id_);
  start_ = now_ns();
}

Scope::~Scope() {
  if (lane_ == nullptr) return;
  const std::uint64_t end = now_ns();
  lane_->open_.pop_back();
  lane_->durations_[name_].record(end - start_);
  if (lane_->spans_.size() < SpanLog::kSpanCap) {
    lane_->spans_.push_back(SpanLog::Span{name_, start_, end, id_, parent_});
  } else {
    ++lane_->dropped_;
  }
}

// ---- HostSpeed --------------------------------------------------------------

namespace {

constexpr std::size_t kChaseWords = std::size_t{1} << 19;  // 4 MiB
constexpr std::size_t kMixWords = std::size_t{1} << 15;    // 256 KiB
constexpr int kChaseSteps = 8'000;
constexpr int kMixSteps = 400'000;

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t reference_work(const std::vector<std::uint64_t>& chase,
                             std::vector<std::uint64_t>& mix) {
  // Each index needs the previous load: memory latency.
  std::uint64_t at = 0;
  for (int i = 0; i < kChaseSteps; ++i) at = chase[at];
  // Independent reads and writes in a cache-resident table: core speed.
  std::uint64_t x = at | 1;
  std::uint64_t acc = 0;
  for (int i = 0; i < kMixSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint64_t& slot = mix[x & (kMixWords - 1)];
    slot = slot * 0x9E3779B97F4A7C15ull + x;
    acc ^= slot >> 7;
  }
  return acc;
}

}  // namespace

double cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 +
         static_cast<double>(ts.tv_nsec);
}

HostSpeed::HostSpeed() : chase_(kChaseWords), mix_(kMixWords, 1) {
  // One cycle through every word (Sattolo's shuffle), so the walk never
  // settles into a cached loop.
  std::iota(chase_.begin(), chase_.end(), std::uint64_t{0});
  for (std::size_t i = kChaseWords - 1; i > 0; --i) {
    std::swap(chase_[i], chase_[splitmix(i) % i]);
  }
}

double HostSpeed::resident_mb() const {
  return static_cast<double>((chase_.size() + mix_.size()) *
                             sizeof(std::uint64_t)) /
         (1024.0 * 1024.0);
}

double HostSpeed::reading_ns(double budget_ns) {
  std::vector<double> samples;
  double spent = 0;
  do {
    const double t0 = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
    mix_[0] ^= reference_work(chase_, mix_) & 1;
    samples.push_back(cpu_ns(CLOCK_THREAD_CPUTIME_ID) - t0);
    spent += samples.back();
  } while (spent < budget_ns && samples.size() < 15);
  return median(std::move(samples));
}

double HostSpeed::nominal_ns(const std::function<void()>& op) {
  if (last_reading_ == 0) last_reading_ = reading_ns(3 * kNominalNs);
  const double t0 = cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
  op();
  const double ns = cpu_ns(CLOCK_PROCESS_CPUTIME_ID) - t0;
  const double before = last_reading_;
  last_reading_ = reading_ns(0.02 * ns);
  return ns * kNominalNs / ((before + last_reading_) / 2);
}

// ---- Metrics ----------------------------------------------------------------

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  values_[name] = {value, unit};
}

void Metrics::fill_from(const Metrics& other) {
  for (const auto& [name, entry] : other.values_) values_.insert({name, entry});
}

void Metrics::update(const Metrics& other) {
  for (const auto& [name, entry] : other.values_) values_[name] = entry;
}

std::string format_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string Metrics::to_json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, entry] : values_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + format_number(entry.first) +
           ", \"unit\": \"" + entry.second + "\"}";
  }
  return out + "}";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

}  // namespace perfbench
