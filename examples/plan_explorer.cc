// Plan explorer: prints, for a pattern graph, everything the BENU planner
// derives — the symmetry-breaking partial order, the best matching order,
// the optimized execution plan (the paper's Fig. 3 style), its
// VCBC-compressed form, estimated costs, and the Exp-1 search counters.
// After each plan it prints the listing the executor runs ("executes
// as:"), with single-use temporaries folded into their filtered INT.
//
// Usage: ./build/examples/plan_explorer [pattern-name] ...
//        (default: q4; see AllPatternNames for the catalog)

#include <cstdio>
#include <string>
#include <vector>

#include "core/executor.h"
#include "graph/patterns.h"
#include "plan/plan_search.h"
#include "plan/symmetry_breaking.h"
#include "plan/vcbc.h"

namespace {

void PrintExecutedForm(const benu::ExecutionPlan& plan) {
  const auto code = benu::FoldSingleUseTemporaries(plan.instructions);
  std::printf("executes as:\n");
  for (size_t i = 0; i < code.size(); ++i) {
    std::printf("  %zu: %s\n", i + 1, code[i].ToString().c_str());
  }
}

void Explore(const std::string& name) {
  using namespace benu;
  auto pattern = GetPattern(name);
  if (!pattern.ok()) {
    std::fprintf(stderr, "unknown pattern %s\n", name.c_str());
    return;
  }
  std::printf("=== %s: %zu vertices, %zu edges ===\n", name.c_str(),
              pattern->NumVertices(), pattern->NumEdges());

  auto constraints = ComputeSymmetryBreakingConstraints(*pattern);
  std::printf("symmetry-breaking partial order:");
  if (constraints.empty()) std::printf(" (none — asymmetric pattern)");
  for (const OrderConstraint& c : constraints) {
    std::printf(" u%u<u%u", c.first + 1, c.second + 1);
  }
  std::printf("\n");

  // Representative data-graph statistics (LiveJournal-like density).
  const DataGraphStats stats{4.8e6, 4.3e7};
  auto best = GenerateBestPlan(*pattern, stats);
  if (!best.ok()) {
    std::fprintf(stderr, "plan search failed: %s\n",
                 best.status().ToString().c_str());
    return;
  }
  std::printf("search: alpha=%llu (bound %.0f)  beta=%llu (bound %.0f)  "
              "time=%.3fs\n",
              static_cast<unsigned long long>(best->estimate_calls),
              AlphaUpperBound(pattern->NumVertices()),
              static_cast<unsigned long long>(best->plans_generated),
              BetaUpperBound(pattern->NumVertices()),
              best->elapsed_seconds);
  std::printf("estimated cost: communication=%.3g  computation=%.3g\n",
              best->cost.communication, best->cost.computation);
  std::printf("best optimized plan:\n%s", best->plan.ToString().c_str());
  PrintExecutedForm(best->plan);

  ExecutionPlan compressed = best->plan;
  if (ApplyVcbcCompression(&compressed).ok()) {
    std::printf("VCBC-compressed plan (core:");
    for (auto u : compressed.core_vertices) std::printf(" u%u", u + 1);
    std::printf("):\n%s", compressed.ToString().c_str());
    PrintExecutedForm(compressed);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> names;
  for (int i = 1; i < argc; ++i) names.push_back(argv[i]);
  if (names.empty()) names = {"q4"};
  for (const std::string& name : names) Explore(name);
  return 0;
}
