// General metric data beyond vector spaces (Sec. 2): a WWW access-log
// database whose objects are user sessions (click paths) compared by edit
// distance. No MINDIST exists for such data, so the index is the M-tree;
// the multiple similarity query and the triangle-inequality avoidance work
// unchanged because they rely only on the metric axioms.
//
//   ./web_sessions [sessions=4000] [profiles=12] [k=8] [m=40]

#include <cstdio>

#include "msq/msq.h"

int main(int argc, char** argv) {
  msq::Flags flags;
  flags.Define("sessions", "4000", "number of sessions in the log");
  flags.Define("profiles", "12", "underlying user profiles");
  flags.Define("k", "8", "similar sessions per query");
  flags.Define("m", "40", "multiple-query batch width");
  if (msq::Status s = flags.Parse(argc, argv); !s.ok()) {
    std::printf("%s\n", s.message().c_str());
    return s.IsNotFound() ? 0 : 1;
  }

  // Sessions encoded as fixed-capacity symbol sequences; labels remember
  // the generating profile so we can sanity-check the similarity search.
  const size_t n = static_cast<size_t>(flags.GetInt("sessions"));
  msq::Dataset sessions = msq::MakeSessionDataset(
      n, static_cast<size_t>(flags.GetInt("profiles")),
      /*alphabet=*/200, /*max_length=*/16, /*seed=*/31);
  auto metric = std::make_shared<msq::EditDistanceMetric>();

  msq::DatabaseOptions options;
  options.backend = msq::BackendKind::kMTree;  // the general-metric index
  auto opened = msq::MetricDatabase::Open(std::move(sessions), metric,
                                          options);
  if (!opened.ok()) {
    std::printf("open failed: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  auto db = std::move(opened).value();
  std::printf("session database: %zu sessions, metric=%s, backend=%s\n",
              db->dataset().size(), db->metric().Name().c_str(),
              db->backend().Name().c_str());

  // Show one similarity query in full.
  const size_t k = static_cast<size_t>(flags.GetInt("k"));
  const msq::ObjectId probe = 17;
  auto answers = db->SimilarityQuery(db->MakeObjectKnnQuery(probe, k));
  if (!answers.ok()) {
    std::printf("query failed: %s\n", answers.status().ToString().c_str());
    return 1;
  }
  auto render = [&](msq::ObjectId id) {
    std::string out;
    for (int sym : msq::DecodeSequence(db->dataset().object(id))) {
      out += "/p" + std::to_string(sym);
    }
    return out;
  };
  std::printf("\nsessions most similar to session %u (profile %d):\n  %s\n",
              probe, db->dataset().label(probe), render(probe).c_str());
  size_t same_profile = 0;
  for (const msq::Neighbor& nb : *answers) {
    if (nb.id == probe) continue;
    std::printf("  edit distance %2.0f, profile %2d: %s\n", nb.distance,
                db->dataset().label(nb.id), render(nb.id).c_str());
    same_profile += db->dataset().label(nb.id) == db->dataset().label(probe);
  }
  std::printf("  -> %zu of %zu neighbors share the profile\n", same_profile,
              answers->size() - 1);

  // Batch workload: find similar sessions for a sample of the log, single
  // vs. multiple similarity queries.
  msq::Rng rng(55);
  std::vector<msq::ObjectId> sample;
  for (uint64_t id : rng.SampleWithoutReplacement(n, 120)) {
    sample.push_back(static_cast<msq::ObjectId>(id));
  }
  const size_t m = static_cast<size_t>(flags.GetInt("m"));

  // Single similarity queries (Figure 1), then the multiple form in
  // windows of m: the answers must agree, only the cost differs.
  auto run = [&](bool multiple, std::vector<msq::AnswerSet>* answers) {
    db->ResetAll();
    return msq::ForEachNeighborhood(
        db.get(), sample, msq::QueryType::Knn(k), m, multiple,
        [&](size_t, const msq::AnswerSet& got) { answers->push_back(got); });
  };
  std::vector<msq::AnswerSet> single_answers, multi_answers;
  msq::Status status = run(false, &single_answers);
  const double single_ms = db->ModeledTotalMillis();
  const uint64_t single_dists = db->stats().TotalDistComputations();
  if (status.ok()) status = run(true, &multi_answers);
  if (!status.ok()) {
    std::printf("query failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const double multi_ms = db->ModeledTotalMillis();
  const bool identical = single_answers == multi_answers;

  std::printf("\n%zu session-similarity queries:\n", sample.size());
  std::printf("  single queries  : %10.1f ms modeled, %llu edit-distance computations\n",
              single_ms, static_cast<unsigned long long>(single_dists));
  std::printf("  multiple (m=%zu): %10.1f ms modeled, %llu edit-distance computations, %llu avoided\n",
              m, multi_ms,
              static_cast<unsigned long long>(
                  db->stats().TotalDistComputations()),
              static_cast<unsigned long long>(db->stats().triangle_avoided));
  std::printf("  speed-up        : %10.1fx\n",
              multi_ms > 0 ? single_ms / multi_ms : 0.0);
  std::printf("  identical answers in both modes: %s\n",
              identical ? "yes" : "NO (bug!)");
  return identical ? 0 : 1;
}
