// The experiment-kind table and the `.scn` key schema.  One kind entry per
// ExperimentKind declares everything the spec parser, the .scn fuzzer and
// the runner know about that kind; adding a kind means adding one entry
// (and a golden).  One key row per `.scn` key declares its section, name,
// type, range, the ScenarioSpec member it fills and the kinds that read
// it; the parser, the fuzzer and README's key table all iterate the rows.
//
// Work items: an entry's layout is a list of blocks, each a list of axis
// sizes.  Blocks take consecutive id ranges in order; inside a block an
// item id is a mixed-radix number over the block's axes, the last-listed
// axis varying fastest - the order of the nested loops the ids were
// historically counted by.  So correction = [1], [attacks, damages] puts
// the benign floor at id 0 and (attack a, damage d) at 1 + a * |damages| + d.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "attack/adversary.h"
#include "core/metric.h"
#include "deploy/deployment_model.h"
#include "sim/scenario.h"

namespace lad {

class ItemSink;

// The tables are the sim layer's own plumbing, shared by the parser, the
// fuzzer and the runner; nothing outside src/sim/ programs against them.
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

/// The sections every kind accepts; a kind's own section is the only other.
inline constexpr std::array<std::string_view, 7> kCommonSections = {
    "scenario", "pipeline", "quick", "sweep", "detector", "run", "output"};

inline bool is_common_section(std::string_view section) {
  return std::find(kCommonSections.begin(), kCommonSections.end(), section) !=
         kCommonSections.end();
}

/// GroupThresholdMode's names, in enumerator order: the values
/// `[sweep] group_thresholds` accepts and the dr table's mode column.
inline constexpr std::array<const char*, 2> kGroupThresholdModeNames = {
    "global", "per_group"};

/// The interval a numeric value (each element of a numeric list) must lie
/// in.  A double must also be finite.
struct Range {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;

  bool contains(double v) const {
    return (lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi);
  }
  bool bounded() const { return std::isfinite(lo) || std::isfinite(hi); }
  /// ">= 0", "> 0", "in (0,1]"; "" when unbounded.
  std::string text() const;
};

/// Returns the ScenarioSpec member a key fills; its type is the key's type.
template <class T>
using Member = T& (*)(ScenarioSpec&);
using KeyMember = std::variant<
    Member<int>, Member<std::optional<int>>, Member<std::uint64_t>,
    Member<double>, Member<bool>, Member<std::string>, Member<ExperimentKind>,
    Member<DeploymentShape>, Member<MismatchCoupling>,
    Member<std::vector<int>>, Member<std::vector<double>>,
    Member<std::vector<std::string>>, Member<std::vector<DeploymentShape>>,
    Member<std::vector<MetricKind>>, Member<std::vector<AttackClass>>,
    Member<std::vector<GroupThresholdMode>>>;

/// A key's value type (of each element, for a list key).  kName is one of
/// the row's names: an enum, or a registry name such as a localizer.
enum class KeyType { kInt, kDouble, kBool, kString, kName };

/// One `.scn` key.  An absent key leaves its member at the ScenarioSpec
/// default.
struct KeyDecl {
  const char* key;
  KeyMember member;
  Range range = {};
  /// The kinds that read it; empty = every kind that accepts its section.
  std::vector<ExperimentKind> kinds = {};
  /// A name key's canonical names, in enumerator order.
  std::vector<std::string> names = {};
  const char* section = "";  ///< the section the row is listed under

  std::string id() const {
    return std::string("[").append(section).append("] ").append(key);
  }
  KeyType type() const;
  bool list() const;
  bool read_by(ExperimentKind kind) const {
    return kinds.empty() ||
           std::find(kinds.begin(), kinds.end(), kind) != kinds.end();
  }
};

/// Every `.scn` key, grouped by section in file order.
const std::vector<KeyDecl>& scenario_keys();

struct KindDecl {
  ExperimentKind kind;
  const char* name;     ///< the `[scenario] experiment` value
  const char* section;  ///< its own section ("" = none)
  /// The [sweep] axes it expands; any other axis must stay single-valued.
  std::vector<std::string> axes;
  std::vector<TableDecl> (*tables)(const ScenarioSpec& spec);
  ItemLayout (*layout)(const ScenarioSpec& spec);
  /// Emits one work item's rows (sink table i = tables(spec)[i]).
  void (*run_item)(KindState& state, const WorkItem& item, ItemSink& sink);

  bool expands(const std::string& axis) const {
    return std::find(axes.begin(), axes.end(), axis) != axes.end();
  }
  /// True when a spec of this kind may set `key`: its section is shared
  /// or this kind's own, and no other kinds reserve it.
  bool accepts(const KeyDecl& key) const {
    return key.read_by(kind) && (is_common_section(key.section) ||
                                 std::string_view(key.section) == section);
  }
};

/// Every kind, in ExperimentKind order.
const std::vector<KindDecl>& experiment_kinds();
const KindDecl& kind_decl(ExperimentKind kind);

/// Total work items of `spec`'s full expansion.
long long count_items(const ScenarioSpec& spec);

}  // namespace detail
}  // namespace lad
