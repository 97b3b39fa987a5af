// The experiment-kind table: one entry per ExperimentKind declares
// everything the spec parser, the .scn fuzzer and the runner know about
// that kind.  Adding a kind means adding one entry (and a golden).
//
// Work items: an entry's layout is a list of blocks, each a list of axis
// sizes.  Blocks take consecutive id ranges in order; inside a block an
// item id is a mixed-radix number over the block's axes, the last-listed
// axis varying fastest - the order of the nested loops the ids were
// historically counted by.  So correction = [1], [attacks, damages] puts
// the benign floor at id 0 and (attack a, damage d) at 1 + a * |damages| + d.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "sim/scenario.h"

namespace lad {

class ItemSink;

// The table is the sim layer's own plumbing, shared by the parser, the
// fuzzer and the runner; nothing outside src/sim/ programs against it.
namespace detail {

struct KindState;  // the runner's lazily built per-spec state

/// One result table: its id (the CSV is `<scenario>.<id>.csv`) and its
/// column headers.
struct TableDecl {
  std::string id;
  std::vector<std::string> columns;
};

/// Blocks of axis sizes; see the header comment.
using ItemLayout = std::vector<std::vector<std::size_t>>;

/// One decoded work item: its id, its layout block, and its index along
/// each of that block's axes.
struct WorkItem {
  long long id = 0;
  std::size_t block = 0;
  std::vector<std::size_t> at;
};

struct KindDecl {
  ExperimentKind kind;
  const char* name;     ///< the `[scenario] experiment` value
  const char* section;  ///< its own section ("" = none)
  /// The [sweep] axes it expands; any other axis must stay single-valued.
  std::vector<std::string> axes;
  /// The optional "[section] key"s it reads out of those only some kinds
  /// read; a spec setting one on any other kind is rejected.
  std::vector<std::string> reads;
  std::vector<TableDecl> (*tables)(const ScenarioSpec& spec);
  ItemLayout (*layout)(const ScenarioSpec& spec);
  /// Emits one work item's rows (sink table i = tables(spec)[i]).
  void (*run_item)(KindState& state, const WorkItem& item, ItemSink& sink);

  bool expands(const std::string& axis) const {
    return std::find(axes.begin(), axes.end(), axis) != axes.end();
  }
  bool reads_key(const std::string& key) const {
    return std::find(reads.begin(), reads.end(), key) != reads.end();
  }
};

/// Every kind, in ExperimentKind order.
const std::vector<KindDecl>& experiment_kinds();
const KindDecl& kind_decl(ExperimentKind kind);

/// Total work items of `spec`'s full expansion.
long long count_items(const ScenarioSpec& spec);

}  // namespace detail
}  // namespace lad
