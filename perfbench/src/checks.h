// Output checks computed apart from the program: every check rebuilds
// what it compares against from the lake's tables (nested-loop joins,
// text row sets), never from the program's own hashes or indexes.
//
// Each function returns an empty string when the output passes and a
// one-line reason when it does not. RunAllChecks also corrupts one output
// per check and confirms the check then fails, so a run also proves that
// its checks can fail.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <string>
#include <utility>
#include <vector>

#include "core/ver.h"
#include "engine/view.h"
#include "storage/repository.h"

namespace perfbench {

using GtColumns = std::vector<std::pair<std::string, std::string>>;

/// Re-materializes `view` from its join graph and projection with a naive
/// nested-loop join over `lake` (tables looked up by the names they have
/// in `program_repo`) and compares row sets by cell text.
std::string CheckViewByNestedLoop(const ver::TableRepository& program_repo,
                                  const ver::TableRepository& lake,
                                  const ver::View& view);

/// 4C invariants: survivors of one schema block are pairwise neither equal
/// nor contained, every pruned view's rows are a subset of its
/// representative's, and survivors plus pruned views are all the views.
std::string CheckDistillation(const ver::QueryResult& result);

/// Some materialized view is projected from exactly the ground-truth
/// columns (zero-noise requests).
std::string CheckGroundTruthView(const ver::TableRepository& repo,
                                 const GtColumns& gt,
                                 const ver::QueryResult& result);

/// automatic_ranking is a permutation of the surviving views.
std::string CheckRankingPermutation(const ver::QueryResult& result);

/// The StopAfter run's views are a prefix of the full run's views.
std::string CheckPrefix(const ver::QueryResult& streamed,
                        const ver::QueryResult& full);

/// Identity of a view or candidate: join-graph signature plus projection.
std::string ViewKey(const ver::JoinGraph& graph,
                    const std::vector<ver::ColumnRef>& projection);

/// Content digest of a result: every view's join graph, projection and
/// sorted row texts, the survivors and the ranking order.
std::string Fingerprint(const ver::QueryResult& result);

/// One checked output: a result plus the request that produced it.
struct CheckedResult {
  const ver::QueryResult* result = nullptr;
  GtColumns gt;
  bool zero_noise = false;
};

/// Everything a workload hands to RunAllChecks.
struct CheckInputs {
  const ver::TableRepository* program_repo = nullptr;
  /// The generator's lake (for the paged workload: regenerated after the
  /// measured phase).
  const ver::TableRepository* lake = nullptr;
  std::vector<CheckedResult> results;
  /// (StopAfter result, the same request run to completion).
  std::vector<std::pair<const ver::QueryResult*, const ver::QueryResult*>>
      prefixes;
  /// (fingerprint of the measured output, of the reference run).
  std::vector<std::pair<std::string, std::string>> same_results;
};

/// Runs every check over the inputs (the nested-loop check on the first,
/// middle and last view of each result) and every self-test; logs each
/// failure to stderr. True when all checks passed and all self-tests
/// failed as they must.
bool RunAllChecks(const CheckInputs& inputs);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
