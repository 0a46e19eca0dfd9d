#include "mining/association.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "mining/explore.h"

namespace msq {

StatusOr<std::vector<AssociationRule>> MineNeighborhoodRules(
    MetricDatabase* db, const AssociationParams& params) {
  if (db == nullptr) return Status::InvalidArgument("db is null");
  const Dataset& ds = db->dataset();
  if (!ds.has_labels()) {
    return Status::InvalidArgument("association mining requires labels");
  }
  if (params.eps <= 0.0) {
    return Status::InvalidArgument("eps must be positive");
  }
  const size_t n = ds.size();

  std::map<int32_t, size_t> label_counts;
  for (ObjectId id = 0; id < n; ++id) {
    if (ds.label(id) != kNoLabel) ++label_counts[ds.label(id)];
  }

  // pair_counts[{A, B}] = number of A-labeled objects with >= 1 B-labeled
  // object (other than themselves) within eps.
  std::map<std::pair<int32_t, int32_t>, size_t> pair_counts;
  std::vector<ObjectId> all(n);
  std::iota(all.begin(), all.end(), ObjectId{0});
  MSQ_RETURN_IF_ERROR(ForEachNeighborhood(
      db, all, QueryType::Range(params.eps), params.batch_size,
      params.use_multiple, [&](size_t i, const AnswerSet& answers) {
        const ObjectId self = static_cast<ObjectId>(i);
        const int32_t a = ds.label(self);
        if (a == kNoLabel) return;
        std::set<int32_t> neighbor_labels;
        for (const Neighbor& nb : answers) {
          if (nb.id == self) continue;
          if (ds.label(nb.id) != kNoLabel) {
            neighbor_labels.insert(ds.label(nb.id));
          }
        }
        for (int32_t b : neighbor_labels) ++pair_counts[{a, b}];
      }));

  std::vector<AssociationRule> rules;
  for (const auto& [pair, count] : pair_counts) {
    AssociationRule rule;
    rule.antecedent_label = pair.first;
    rule.consequent_label = pair.second;
    rule.support = static_cast<double>(count) / static_cast<double>(n);
    rule.confidence = static_cast<double>(count) /
                      static_cast<double>(label_counts[pair.first]);
    if (rule.support >= params.min_support &&
        rule.confidence >= params.min_confidence) {
      rules.push_back(rule);
    }
  }
  std::sort(rules.begin(), rules.end(),
            [](const AssociationRule& a, const AssociationRule& b) {
              if (a.confidence != b.confidence) {
                return a.confidence > b.confidence;
              }
              if (a.antecedent_label != b.antecedent_label) {
                return a.antecedent_label < b.antecedent_label;
              }
              return a.consequent_label < b.consequent_label;
            });
  return rules;
}

}  // namespace msq
