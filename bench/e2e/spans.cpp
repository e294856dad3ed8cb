#include "spans.hpp"

#include <iomanip>
#include <map>
#include <stdexcept>

#include "ncnas/obs/journal.hpp"

namespace bench {

std::size_t Spans::open(std::string name) {
  const std::size_t parent = open_.empty() ? kNoParent : open_.back();
  const Clock::time_point now = Clock::now();
  spans_.push_back({std::move(name), now, now, parent});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

double Spans::close(std::size_t id) {
  if (open_.empty() || open_.back() != id) throw std::logic_error("Spans::close: not innermost");
  open_.pop_back();
  Span& s = spans_[id];
  s.end = Clock::now();
  return std::chrono::duration<double>(s.end - s.start).count();
}

void Spans::write_chrome_trace(std::ostream& os) const {
  const Clock::time_point origin = spans_.empty() ? Clock::now() : spans_.front().start;
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  os << std::fixed << std::setprecision(3) << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    os << (i == 0 ? "\n" : ",\n") << "{\"name\":";
    ncnas::obs::write_json_string(os, s.name);
    os << ",\"cat\":";
    ncnas::obs::write_json_string(os, layer);
    os << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << us(s.start)
       << ",\"dur\":" << us(s.end) - us(s.start) << ",\"args\":{\"id\":" << i << ",\"parent\":"
       << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent)) << "}}";
  }
  os << "\n]}\n";
}

std::vector<std::pair<std::string, double>> Spans::self_seconds_by_layer() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += std::chrono::duration<double>(spans_[i].end - spans_[i].start).count();
    if (spans_[i].parent != kNoParent) {
      self[spans_[i].parent] -=
          std::chrono::duration<double>(spans_[i].end - spans_[i].start).count();
    }
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_layer[spans_[i].name.substr(0, spans_[i].name.find('.'))] += self[i];
  }
  return {by_layer.begin(), by_layer.end()};
}

}  // namespace bench
