// The three workloads of the msq benchmark. Each call is one pass: it sets
// the system up (several times; setup_s is the median), checks answers
// against the brute-force oracle, measures for Config::seconds, and returns
// the end-to-end metrics — plus the per-layer metrics, and the spans in
// `spans`, when `spans` is non-null (the traced pass).

#ifndef MSQ_BENCH_SUITE_WORKLOADS_H_
#define MSQ_BENCH_SUITE_WORKLOADS_H_

#include "suite.h"

namespace msq::suite {

PassResult RunServe(const Config& cfg, SpanLog* spans);
PassResult RunMine(const Config& cfg, SpanLog* spans);
PassResult RunIngest(const Config& cfg, SpanLog* spans);

}  // namespace msq::suite

#endif  // MSQ_BENCH_SUITE_WORKLOADS_H_
