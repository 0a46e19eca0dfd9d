#include "core/answer_buffer.h"

#include <algorithm>

namespace msq {

BufferedQueryState* AnswerBuffer::Find(QueryId id) {
  auto it = states_.find(id);
  return it == states_.end() ? nullptr : &it->second;
}

StatusOr<BufferedQueryState*> AnswerBuffer::GetOrCreate(const Query& q,
                                                        bool* created) {
  if (created != nullptr) *created = false;
  auto it = states_.find(q.id);
  if (it != states_.end()) {
    if (!SameDefinition(it->second.query, q)) {
      return Status::InvalidArgument(
          "query id " + std::to_string(q.id) +
          " re-submitted with a different point or type");
    }
    return &it->second;
  }
  auto [ins, ok] = states_.emplace(q.id, BufferedQueryState(q));
  (void)ok;
  if (created != nullptr) *created = true;
  return &ins->second;
}

void AnswerBuffer::Touch(BufferedQueryState* state) {
  state->last_touched = ++clock_;
}

void AnswerBuffer::EnforceCapacity(
    const std::unordered_set<QueryId>& pinned) {
  if (states_.size() <= capacity_) return;
  // Collect eviction candidates: (completed-first, LRU) order.
  struct Candidate {
    QueryId id;
    bool complete;
    uint64_t touched;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(states_.size());
  for (const auto& [id, state] : states_) {
    if (pinned.count(id)) continue;
    candidates.push_back({id, state.complete, state.last_touched});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.complete != b.complete) return a.complete > b.complete;
              return a.touched < b.touched;
            });
  for (const Candidate& c : candidates) {
    if (states_.size() <= capacity_) break;
    states_.erase(c.id);
  }
}

bool AnswerBuffer::Erase(QueryId id) { return states_.erase(id) > 0; }

void AnswerBuffer::Clear() { states_.clear(); }

}  // namespace msq
