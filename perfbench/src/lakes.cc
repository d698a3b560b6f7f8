#include "lakes.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>

#include "workload/open_data_gen.h"
#include "workload/wdc_gen.h"

namespace perfbench {

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

RequestSpec MakeRequest(const ver::GeneratedDataset& lake,
                        const ver::GroundTruthQuery& gt,
                        ver::NoiseLevel noise, uint64_t seed) {
  ver::Result<ver::ExampleQuery> query =
      ver::MakeNoisyQuery(lake.repo, gt, noise, /*rows_per_column=*/3, seed);
  if (!query.ok()) {
    // The generators only emit resolvable queries; anything else is a
    // generator fault the benchmark cannot work around.
    std::fprintf(stderr, "query generation failed: %s\n",
                 query.status().ToString().c_str());
    std::exit(2);
  }
  RequestSpec spec;
  spec.query = std::move(query).value();
  spec.noise = noise;
  for (size_t a = 0; a < gt.gt_tables.size(); ++a) {
    spec.gt_columns.emplace_back(gt.gt_tables[a], gt.gt_attributes[a]);
  }
  return spec;
}

void PutString(std::ostream& out, const std::string& s) {
  out << s.size() << ':' << s << '\n';
}

bool GetString(std::istream& in, std::string* s) {
  size_t len = 0;
  char colon = 0;
  if (!(in >> len) || !in.get(colon) || colon != ':') return false;
  s->resize(len);
  if (len > 0 && !in.read(&(*s)[0], static_cast<std::streamsize>(len))) {
    return false;
  }
  return static_cast<bool>(in.ignore(1));
}

}  // namespace

ver::GeneratedDataset MakePortalLake(int scale) {
  ver::OpenDataSpec spec;
  spec.num_tables = 160 * scale;
  // The generator draws queries with replacement from its planted columns
  // and gives up after a few draws per column; asking for more than it can
  // draw makes it go that far, which reaches nearly every distinct query
  // (52 at scale 1, 118 at scale 2).
  spec.num_queries = 200 * scale;
  return ver::GenerateOpenDataLike(spec);
}

ver::GeneratedDataset MakeWebtablesLake() {
  ver::WdcSpec spec;
  spec.versions_per_topic = 6;
  spec.num_filler_tables = 2000;
  return ver::GenerateWdcLike(spec);
}

std::vector<RequestSpec> PortalRequests(const ver::GeneratedDataset& lake,
                                        uint64_t seed) {
  static const ver::NoiseLevel kLevels[] = {
      ver::NoiseLevel::kZero, ver::NoiseLevel::kMedium,
      ver::NoiseLevel::kHigh};
  std::set<std::string> seen;
  std::vector<RequestSpec> out;
  for (const ver::GroundTruthQuery& gt : lake.queries) {
    std::string key;
    for (size_t a = 0; a < gt.gt_tables.size(); ++a) {
      key += gt.gt_tables[a] + "." + gt.gt_attributes[a] + "|";
    }
    if (!seen.insert(key).second) continue;
    for (ver::NoiseLevel noise : kLevels) {
      out.push_back(MakeRequest(lake, gt, noise, Mix(seed + out.size())));
    }
  }
  return out;
}

std::vector<RequestSpec> WebtablesPool(const ver::GeneratedDataset& lake,
                                       int variants) {
  constexpr uint64_t kPoolSeed = 1;
  static const ver::NoiseLevel kLevels[] = {
      ver::NoiseLevel::kZero, ver::NoiseLevel::kMedium,
      ver::NoiseLevel::kHigh};
  const size_t queries = lake.queries.size();
  const size_t combos = queries * 3;
  std::vector<RequestSpec> out;
  for (int v = 0; v < variants; ++v) {
    // Entry i takes noise level i % 3 and query i % queries, so with 5
    // queries every 15 consecutive entries hold each pair once.
    for (size_t i = 0; i < combos; ++i) {
      out.push_back(MakeRequest(lake, lake.queries[i % queries],
                                kLevels[i % 3],
                                Mix(kPoolSeed * 31 + out.size())));
    }
  }
  return out;
}

void ShuffleRange(std::vector<RequestSpec>* requests, size_t begin,
                  size_t end, uint64_t seed) {
  for (size_t i = end; i > begin + 1; --i) {
    size_t j = begin + Mix(seed * 0x2545f4914f6cdd1dULL + i) % (i - begin);
    std::swap((*requests)[i - 1], (*requests)[j]);
  }
}

ver::Status WriteRequests(const std::string& path,
                          const std::vector<RequestSpec>& requests) {
  std::ofstream out(path, std::ios::binary);
  out << requests.size() << '\n';
  for (const RequestSpec& r : requests) {
    out << static_cast<int>(r.noise) << ' ' << r.query.columns.size() << ' '
        << r.gt_columns.size() << '\n';
    for (size_t a = 0; a < r.query.columns.size(); ++a) {
      PutString(out, r.query.attribute_hints[a]);
      out << r.query.columns[a].size() << '\n';
      for (const std::string& v : r.query.columns[a]) PutString(out, v);
    }
    for (const auto& [table, attribute] : r.gt_columns) {
      PutString(out, table);
      PutString(out, attribute);
    }
  }
  out.close();
  if (!out) return ver::Status::Internal("cannot write " + path);
  return ver::Status::OK();
}

ver::Status ReadRequests(const std::string& path,
                         std::vector<RequestSpec>* requests) {
  std::ifstream in(path, std::ios::binary);
  size_t count = 0;
  if (!(in >> count)) return ver::Status::Internal("cannot read " + path);
  requests->clear();
  for (size_t i = 0; i < count; ++i) {
    RequestSpec r;
    int noise = 0;
    size_t attrs = 0, gts = 0;
    if (!(in >> noise >> attrs >> gts)) {
      return ver::Status::Internal("truncated request file " + path);
    }
    r.noise = static_cast<ver::NoiseLevel>(noise);
    r.query.columns.resize(attrs);
    r.query.attribute_hints.resize(attrs);
    for (size_t a = 0; a < attrs; ++a) {
      size_t values = 0;
      if (!GetString(in, &r.query.attribute_hints[a]) || !(in >> values)) {
        return ver::Status::Internal("truncated request file " + path);
      }
      r.query.columns[a].resize(values);
      for (std::string& v : r.query.columns[a]) {
        if (!GetString(in, &v)) {
          return ver::Status::Internal("truncated request file " + path);
        }
      }
    }
    r.gt_columns.resize(gts);
    for (auto& [table, attribute] : r.gt_columns) {
      if (!GetString(in, &table) || !GetString(in, &attribute)) {
        return ver::Status::Internal("truncated request file " + path);
      }
    }
    requests->push_back(std::move(r));
  }
  return ver::Status::OK();
}

}  // namespace perfbench
