#include "common/stats.h"

#include <sstream>

namespace msq {

double QueryStats::IoMillis(const CostModel& model) const {
  return static_cast<double>(random_page_reads) * model.random_page_ms +
         static_cast<double>(seq_page_reads) * model.seq_page_ms;
}

double QueryStats::CpuMillis(const CostModel& model, size_t dim) const {
  const double dist_us = model.DistMicros(dim);
  const double micros =
      static_cast<double>(TotalDistComputations()) * dist_us +
      static_cast<double>(triangle_tries + pivot_tries) *
          model.triangle_cmp_micros;
  return micros / 1000.0;
}

double QueryStats::TotalMillis(const CostModel& model, size_t dim) const {
  return IoMillis(model) + CpuMillis(model, dim);
}

QueryStats& QueryStats::operator+=(const QueryStats& other) {
  for (const QueryStatsCounter& c : kQueryStatsCounters) {
    this->*c.member += other.*c.member;
  }
  for (const QueryStatsWallTime& w : kQueryStatsWallTimes) {
    this->*w.member += other.*w.member;
  }
  return *this;
}

QueryStats QueryStats::operator-(const QueryStats& other) const {
  QueryStats d = *this;
  for (const QueryStatsCounter& c : kQueryStatsCounters) {
    d.*c.member -= other.*c.member;
  }
  for (const QueryStatsWallTime& w : kQueryStatsWallTimes) {
    d.*w.member -= other.*w.member;
  }
  return d;
}

std::string QueryStats::ToString() const {
  std::ostringstream os;
  const char* sep = "";
  for (const QueryStatsCounter& c : kQueryStatsCounters) {
    os << sep << c.name << '=' << this->*c.member;
    sep = " ";
  }
  return os.str();
}

}  // namespace msq
