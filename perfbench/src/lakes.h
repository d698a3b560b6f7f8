// The benchmark's lakes and request lists, all made by the library's own
// workload generators.
//
// Each lake is the generator's default-seed lake; --seed drives the query
// generator of the portal workloads (which example values each request
// carries) and the order of the webtables pool, so the same seed gives the
// same inputs. Lakes drawn from --seed moved the medians of
// latency and throughput 2-4x from one seed to the next (the share of
// queries that hit a widely shared key column changes with the lake), far
// beyond any bound a later change could be held to.
//
// portal: Open-Data-like portal at generator scale `scale` (160 * scale
//   tables before the "_alt" siblings). portal_batch runs scale 2,
//   portal_paged_stream the same generator at scale 1.
// webtables: WDC-like lake, 6 versions of each of the 5 topic fact tables
//   plus 2,000 unrelated filler tables.

#ifndef PERFBENCH_LAKES_H_
#define PERFBENCH_LAKES_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/query.h"
#include "util/status.h"
#include "workload/ground_truth.h"
#include "workload/noisy_query.h"

namespace perfbench {

/// One request of a workload's request list.
struct RequestSpec {
  ver::ExampleQuery query;
  ver::NoiseLevel noise = ver::NoiseLevel::kZero;
  /// The ground-truth projection as (table name, attribute name) pairs.
  std::vector<std::pair<std::string, std::string>> gt_columns;
};

ver::GeneratedDataset MakePortalLake(int scale);
ver::GeneratedDataset MakeWebtablesLake();

/// Three requests (zero, medium and high noise) per distinct ground-truth
/// query of the portal lake. Covering every distinct query, each with
/// three independently sampled example sets, keeps the cost of a round
/// close from one seed to the next.
std::vector<RequestSpec> PortalRequests(const ver::GeneratedDataset& lake,
                                        uint64_t seed);

/// The webtables pool of noisy variants: `variants` differently-sampled
/// queries per ground-truth query and noise level; the first 15 entries
/// hold each (query, noise level) pair once. Its example values come from a
/// fixed query seed, like the lakes: about 4% of the entries spend ~0.5 s
/// more in column selection than the rest, and when the seed chose the
/// values their share of a run ranged from 2.4% to 5.6%, which moved
/// latency_p95_ms between ~230 and ~700 ms. The workload's --seed orders
/// the pool instead.
std::vector<RequestSpec> WebtablesPool(const ver::GeneratedDataset& lake,
                                       int variants);

/// Shuffles (*requests)[begin, end) in an order drawn from `seed`.
void ShuffleRange(std::vector<RequestSpec>* requests, size_t begin,
                  size_t end, uint64_t seed);

/// Request lists travel from the preparing process to the measured one
/// as a length-prefixed text file.
ver::Status WriteRequests(const std::string& path,
                          const std::vector<RequestSpec>& requests);
ver::Status ReadRequests(const std::string& path,
                         std::vector<RequestSpec>* requests);

}  // namespace perfbench

#endif  // PERFBENCH_LAKES_H_
