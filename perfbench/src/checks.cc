#include "checks.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <set>

#include "common.h"

namespace perfbench {

namespace {

constexpr char kSep = '\x1f';
constexpr char kNull[] = "\x1e";

std::string CellText(const ver::Table& t, int64_t row, int col) {
  ver::CellView cell = t.cell(row, col);
  return cell.is_null() ? std::string(kNull) : cell.ToText();
}

std::string RowText(const ver::Table& t, int64_t row,
                    const std::vector<int>& cols) {
  std::string out;
  for (int c : cols) {
    out += CellText(t, row, c);
    out += kSep;
  }
  return out;
}

std::vector<int> Identity(int n) {
  std::vector<int> cols(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) cols[static_cast<size_t>(i)] = i;
  return cols;
}

std::string Lower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

/// Columns ordered by lower-cased attribute name (ties by position), so
/// views with permuted schemas compare row by row.
std::vector<int> CanonicalColumns(const ver::Table& t) {
  std::vector<int> cols = Identity(t.num_columns());
  std::stable_sort(cols.begin(), cols.end(), [&t](int a, int b) {
    return Lower(t.schema().attribute(a).name) <
           Lower(t.schema().attribute(b).name);
  });
  return cols;
}

std::string SchemaBlock(const ver::Table& t) {
  std::vector<std::string> names;
  for (int c = 0; c < t.num_columns(); ++c) {
    names.push_back(Lower(t.schema().attribute(c).name));
  }
  std::sort(names.begin(), names.end());
  std::string out;
  for (const std::string& n : names) out += n + kSep;
  return out;
}

std::set<std::string> RowSet(const ver::Table& t,
                             const std::vector<int>& cols) {
  std::set<std::string> rows;
  for (int64_t r = 0; r < t.num_rows(); ++r) rows.insert(RowText(t, r, cols));
  return rows;
}

bool IsSubset(const std::set<std::string>& a, const std::set<std::string>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

uint64_t Fnv(const std::string& s, uint64_t h = 0xcbf29ce484222325ULL) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A copy of `t` without its last row.
ver::Table DropLastRow(const ver::Table& t) {
  ver::Table out(t.name(), t.schema());
  std::vector<ver::CellView> row;
  for (int64_t r = 0; r + 1 < t.num_rows(); ++r) {
    row.clear();
    for (int c = 0; c < t.num_columns(); ++c) row.push_back(t.cell(r, c));
    if (!out.AppendCells(row).ok()) break;
  }
  return out;
}

}  // namespace

std::string ViewKey(const ver::JoinGraph& graph,
                    const std::vector<ver::ColumnRef>& projection) {
  std::string key = graph.Signature();
  for (const ver::ColumnRef& c : projection) key += "|" + c.ToString();
  return key;
}

std::string CheckViewByNestedLoop(const ver::TableRepository& program_repo,
                                  const ver::TableRepository& lake,
                                  const ver::View& view) {
  // Map the program's table ids to the lake's by name.
  std::map<int32_t, int32_t> lake_id;
  auto resolve = [&](int32_t program_id) -> int32_t {
    auto it = lake_id.find(program_id);
    if (it != lake_id.end()) return it->second;
    ver::Result<int32_t> id =
        lake.FindTable(program_repo.table(program_id).name());
    int32_t out = id.ok() ? id.value() : -1;
    lake_id[program_id] = out;
    return out;
  };

  // Tables in an order where each one after the first shares an edge with
  // an earlier one (edgeless graphs have exactly one table).
  std::vector<int32_t> order;
  if (view.graph.edges.empty()) {
    if (view.graph.tables.size() != 1) return "edgeless graph over != 1 table";
    order.push_back(view.graph.tables[0]);
  } else {
    order.push_back(view.graph.edges.front().left.table_id);
    bool grew = true;
    while (grew) {
      grew = false;
      for (const ver::JoinEdge& e : view.graph.edges) {
        bool has_l = std::count(order.begin(), order.end(), e.left.table_id);
        bool has_r = std::count(order.begin(), order.end(), e.right.table_id);
        if (has_l != has_r) {
          order.push_back(has_l ? e.right.table_id : e.left.table_id);
          grew = true;
        }
      }
    }
  }
  for (int32_t t : order) {
    if (resolve(t) < 0) return "table missing from lake";
  }
  for (const ver::ColumnRef& p : view.projection) {
    if (std::find(order.begin(), order.end(), p.table_id) == order.end()) {
      return "projection outside join graph";
    }
  }

  // Edges checkable once table order[d] is bound: both ends at depth <= d.
  std::vector<std::vector<const ver::JoinEdge*>> edges_at(order.size());
  auto depth = [&](int32_t t) {
    return static_cast<size_t>(std::find(order.begin(), order.end(), t) -
                               order.begin());
  };
  for (const ver::JoinEdge& e : view.graph.edges) {
    edges_at[std::max(depth(e.left.table_id), depth(e.right.table_id))]
        .push_back(&e);
  }

  std::set<std::string> expected;
  std::vector<int64_t> rows(order.size(), 0);
  auto cell = [&](const ver::ColumnRef& c) {
    return CellText(lake.table(resolve(c.table_id)),
                    rows[depth(c.table_id)], c.column_index);
  };
  std::function<void(size_t)> bind = [&](size_t d) {
    if (d == order.size()) {
      std::string row;
      for (size_t p = 0; p < view.projection.size(); ++p) {
        row += cell(view.projection[p]);
        row += kSep;
      }
      expected.insert(std::move(row));
      return;
    }
    const ver::Table& table = lake.table(resolve(order[d]));
    for (int64_t r = 0; r < table.num_rows(); ++r) {
      rows[d] = r;
      bool ok = true;
      for (const ver::JoinEdge* e : edges_at[d]) {
        std::string l = cell(e->left);
        if (l == kNull || l != cell(e->right)) {
          ok = false;
          break;
        }
      }
      if (ok) bind(d + 1);
    }
  };
  bind(0);

  std::set<std::string> actual =
      RowSet(view.table, Identity(view.table.num_columns()));
  if (static_cast<int64_t>(actual.size()) != view.table.num_rows()) {
    return "view " + std::to_string(view.id) + " holds duplicate rows";
  }
  if (actual != expected) {
    return "view " + std::to_string(view.id) + " has " +
           std::to_string(actual.size()) + " rows, nested-loop join gives " +
           std::to_string(expected.size());
  }
  return "";
}

std::string CheckDistillation(const ver::QueryResult& result) {
  const std::vector<ver::View>& views = result.views;
  const ver::DistillationResult& d = result.distillation;
  const int n = static_cast<int>(views.size());
  std::vector<char> survives(static_cast<size_t>(n), 0);
  for (int v : d.surviving) {
    if (v < 0 || v >= n) return "surviving index out of range";
    if (survives[static_cast<size_t>(v)]) return "view survives twice";
    survives[static_cast<size_t>(v)] = 1;
  }
  std::vector<std::set<std::string>> rows(static_cast<size_t>(n));
  std::vector<std::string> blocks(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) {
    const ver::Table& t = views[static_cast<size_t>(v)].table;
    rows[static_cast<size_t>(v)] = RowSet(t, CanonicalColumns(t));
    blocks[static_cast<size_t>(v)] = SchemaBlock(t);
  }
  for (int v = 0; v < n; ++v) {
    bool has_rep = d.representative.count(v) > 0;
    if (survives[static_cast<size_t>(v)]) {
      if (has_rep) return "survivor has a representative";
      continue;
    }
    // Survivors plus pruned views are all the views: every pruned view
    // reaches a survivor through representatives, losing no rows.
    int cur = v;
    for (int hops = 0; !survives[static_cast<size_t>(cur)]; ++hops) {
      auto it = d.representative.find(cur);
      if (it == d.representative.end() || hops > n) {
        return "pruned view " + std::to_string(v) + " has no surviving "
               "representative";
      }
      int rep = it->second;
      if (rep < 0 || rep >= n ||
          blocks[static_cast<size_t>(rep)] != blocks[static_cast<size_t>(cur)] ||
          !IsSubset(rows[static_cast<size_t>(cur)],
                    rows[static_cast<size_t>(rep)])) {
        return "pruned view " + std::to_string(cur) +
               " is not contained in its representative";
      }
      cur = rep;
    }
  }
  std::map<std::string, std::vector<int>> survivors_by_block;
  for (int v : d.surviving) {
    survivors_by_block[blocks[static_cast<size_t>(v)]].push_back(v);
  }
  for (const auto& [block, members] : survivors_by_block) {
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        const auto& a = rows[static_cast<size_t>(members[i])];
        const auto& b = rows[static_cast<size_t>(members[j])];
        if (IsSubset(a, b) || IsSubset(b, a)) {
          return "survivors " + std::to_string(members[i]) + " and " +
                 std::to_string(members[j]) + " are equal or contained";
        }
      }
    }
  }
  return "";
}

std::string CheckGroundTruthView(const ver::TableRepository& repo,
                                 const GtColumns& gt,
                                 const ver::QueryResult& result) {
  std::vector<std::pair<std::string, std::string>> want = gt;
  std::sort(want.begin(), want.end());
  for (const ver::View& v : result.views) {
    std::vector<std::pair<std::string, std::string>> have;
    for (const ver::ColumnRef& c : v.projection) {
      if (c.table_id < 0 || c.table_id >= repo.num_tables()) break;
      const ver::Table& t = repo.table(c.table_id);
      if (c.column_index < 0 || c.column_index >= t.num_columns()) break;
      have.emplace_back(t.name(), t.schema().attribute(c.column_index).name);
    }
    std::sort(have.begin(), have.end());
    if (have == want) return "";
  }
  return "no view is projected from the ground-truth columns";
}

std::string CheckRankingPermutation(const ver::QueryResult& result) {
  std::vector<int> ranked;
  for (const ver::OverlapRankedView& r : result.automatic_ranking) {
    ranked.push_back(r.view_index);
  }
  std::vector<int> surviving = result.distillation.surviving;
  std::sort(ranked.begin(), ranked.end());
  std::sort(surviving.begin(), surviving.end());
  if (ranked != surviving) {
    return "ranking is not a permutation of the survivors";
  }
  return "";
}

std::string CheckPrefix(const ver::QueryResult& streamed,
                        const ver::QueryResult& full) {
  if (streamed.views.size() > full.views.size()) {
    return "streamed run has more views than the full run";
  }
  for (size_t i = 0; i < streamed.views.size(); ++i) {
    const ver::View& s = streamed.views[i];
    const ver::View& f = full.views[i];
    if (ViewKey(s.graph, s.projection) != ViewKey(f.graph, f.projection) ||
        RowSet(s.table, Identity(s.table.num_columns())) !=
            RowSet(f.table, Identity(f.table.num_columns()))) {
      return "streamed view " + std::to_string(i) +
             " differs from the full run's";
    }
  }
  return "";
}

std::string Fingerprint(const ver::QueryResult& result) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const ver::View& v : result.views) {
    h = Fnv(ViewKey(v.graph, v.projection), h);
    std::set<std::string> rows =
        RowSet(v.table, Identity(v.table.num_columns()));
    for (const std::string& r : rows) h = Fnv(r, h);
    h = Fnv("#" + std::to_string(v.table.num_rows()), h);
  }
  std::string out = std::to_string(result.views.size()) + ":" +
                    std::to_string(h) + ":s";
  for (int v : result.distillation.surviving) out += std::to_string(v) + ",";
  out += ":r";
  for (const ver::OverlapRankedView& r : result.automatic_ranking) {
    out += std::to_string(r.view_index) + ",";
  }
  return out;
}

namespace {

/// Samples of outputs the self-tests corrupt; any may be left empty, in
/// which case the matching self-test counts as failed.
struct SelfTestInputs {
  const ver::TableRepository* program_repo = nullptr;
  const ver::TableRepository* lake = nullptr;
  /// A result with at least one view that passed the nested-loop check.
  const ver::QueryResult* with_views = nullptr;
  /// A zero-noise result that passed the ground-truth check, and its gt.
  const ver::QueryResult* with_ground_truth = nullptr;
  GtColumns gt;
  /// A streamed result and its full run that passed the prefix check.
  const ver::QueryResult* streamed = nullptr;
  const ver::QueryResult* full = nullptr;
};

/// Runs every self-test; returns the names of checks that did NOT fail on
/// their corrupted input (empty = all checks proved able to fail).
std::vector<std::string> RunSelfTests(const SelfTestInputs& in) {
  std::vector<std::string> missed;
  const ver::QueryResult* base = in.with_views;
  bool have_views = base != nullptr && !base->views.empty() &&
                    in.program_repo != nullptr && in.lake != nullptr;

  // Nested-loop check: drop a row from a view.
  if (!have_views) {
    missed.push_back("nested_loop");
  } else {
    ver::View v = base->views[0];
    v.table = DropLastRow(v.table);
    if (CheckViewByNestedLoop(*in.program_repo, *in.lake, v).empty()) {
      missed.push_back("nested_loop");
    }
  }

  // 4C: keep a contained (or duplicated) view among the survivors.
  if (!have_views || base->distillation.surviving.empty()) {
    missed.push_back("distillation");
  } else {
    ver::QueryResult r = *base;
    int pruned = -1;
    for (int v = 0; v < static_cast<int>(r.views.size()); ++v) {
      if (r.distillation.representative.count(v)) {
        pruned = v;
        break;
      }
    }
    if (pruned >= 0) {
      r.distillation.representative.erase(pruned);
      r.distillation.surviving.push_back(pruned);
    } else {
      r.views.push_back(r.views[static_cast<size_t>(
          r.distillation.surviving[0])]);
      r.distillation.surviving.push_back(
          static_cast<int>(r.views.size()) - 1);
    }
    if (CheckDistillation(r).empty()) missed.push_back("distillation");
  }

  // Ground truth: move every matching view off the ground-truth columns.
  if (in.with_ground_truth == nullptr || in.program_repo == nullptr) {
    missed.push_back("ground_truth");
  } else {
    ver::QueryResult r = *in.with_ground_truth;
    for (ver::View& v : r.views) {
      if (!v.projection.empty()) v.projection[0].column_index = -1;
    }
    if (CheckGroundTruthView(*in.program_repo, in.gt, r).empty()) {
      missed.push_back("ground_truth");
    }
  }

  // Ranking: duplicate one ranked view in place of another.
  if (!have_views || base->automatic_ranking.empty()) {
    missed.push_back("ranking");
  } else {
    ver::QueryResult r = *base;
    r.automatic_ranking.push_back(r.automatic_ranking[0]);
    if (CheckRankingPermutation(r).empty()) missed.push_back("ranking");
  }

  // Prefix: reorder the stream (or drop a row when it has one view).
  if (in.streamed == nullptr || in.full == nullptr ||
      in.streamed->views.empty()) {
    missed.push_back("prefix");
  } else {
    ver::QueryResult s = *in.streamed;
    if (s.views.size() >= 2 &&
        ViewKey(s.views[0].graph, s.views[0].projection) !=
            ViewKey(s.views[1].graph, s.views[1].projection)) {
      std::swap(s.views[0], s.views[1]);
    } else {
      s.views[0].table = DropLastRow(s.views[0].table);
    }
    if (CheckPrefix(s, *in.full).empty()) missed.push_back("prefix");
  }

  // Served-vs-direct equality: drop a row from one view.
  if (!have_views) {
    missed.push_back("same_result");
  } else {
    ver::QueryResult r = *base;
    r.views[0].table = DropLastRow(r.views[0].table);
    if (Fingerprint(r) == Fingerprint(*base)) missed.push_back("same_result");
  }
  return missed;
}

}  // namespace

bool RunAllChecks(const CheckInputs& in) {
  int64_t checked = 0, failed = 0;
  auto expect = [&](const std::string& what, const std::string& error) {
    ++checked;
    if (error.empty()) return true;
    ++failed;
    Log("CHECK FAILED (%s): %s", what.c_str(), error.c_str());
    return false;
  };
  SelfTestInputs self;
  self.program_repo = in.program_repo;
  self.lake = in.lake;
  for (const CheckedResult& c : in.results) {
    const ver::QueryResult& r = *c.result;
    bool ok = expect("ranking", CheckRankingPermutation(r));
    ok &= expect("distillation", CheckDistillation(r));
    const size_t n = r.views.size();
    std::set<size_t> sample;
    if (n > 0) sample = {0, n / 2, n - 1};
    for (size_t i : sample) {
      ok &= expect("nested_loop",
                   CheckViewByNestedLoop(*in.program_repo, *in.lake,
                                         r.views[i]));
    }
    if (ok && n > 0 && self.with_views == nullptr) self.with_views = &r;
    if (c.zero_noise) {
      bool hit = expect("ground_truth",
                        CheckGroundTruthView(*in.program_repo, c.gt, r));
      if (hit && self.with_ground_truth == nullptr) {
        self.with_ground_truth = &r;
        self.gt = c.gt;
      }
    }
  }
  for (const auto& [streamed, full] : in.prefixes) {
    bool ok = expect("prefix", CheckPrefix(*streamed, *full));
    ok &= expect("distillation", CheckDistillation(*streamed));
    if (ok && !streamed->views.empty() && self.streamed == nullptr) {
      self.streamed = streamed;
      self.full = full;
    }
  }
  for (const auto& [measured, reference] : in.same_results) {
    expect("same_result", measured == reference
                              ? ""
                              : "measured output differs from the reference "
                                "run (" + measured + " vs " + reference + ")");
  }
  std::vector<std::string> missed = RunSelfTests(self);
  for (const std::string& name : missed) {
    Log("SELF-TEST FAILED: the %s check accepted a corrupted output",
        name.c_str());
  }
  Log("checks: %lld run, %lld failed; self-tests: %zu of 6 caught their "
      "corruption",
      static_cast<long long>(checked), static_cast<long long>(failed),
      6 - missed.size());
  return failed == 0 && missed.empty();
}

}  // namespace perfbench
