// Whole-program rules over the declaration/definition index:
// quiescence-safety, lock-discipline, layering. See index.hpp for what the
// indexer extracts and DESIGN.md "Static analysis" for rule semantics and
// the soundness limits of name-based call resolution.
#include <algorithm>
#include <deque>

#include "rules_internal.hpp"

namespace hermeslint {
namespace detail {

namespace {

std::string qualified(const FunctionDef& fn) {
  return fn.scope.empty() ? fn.name : fn.scope + "::" + fn.name;
}

// ---------------------------------------------------------------------------
// layering: module DAG over the include graph
// ---------------------------------------------------------------------------

// Allowed dependencies, transitively closed. This is the ISSUE/DESIGN DAG
//   support <- {net, crypto} <- sim <- {mempool, overlay} <- protocols
//           <- hermes <- workload <- fuzz <- {tools, bench}
// with `protocols` placed below `hermes` (hermes composes the protocol
// harness; protocols never includes hermes). Same-module includes are
// always allowed.
const std::map<std::string, std::set<std::string>>& layer_deps() {
  static const std::set<std::string> all_src = {
      "support", "net",     "crypto",    "sim",    "mempool",
      "overlay", "protocols", "hermes", "workload", "fuzz"};
  static const std::map<std::string, std::set<std::string>> deps = {
      {"support", {}},
      {"net", {"support"}},
      {"crypto", {"support"}},
      {"sim", {"support", "net", "crypto"}},
      {"mempool", {"support", "net", "crypto", "sim"}},
      {"overlay", {"support", "net", "crypto", "sim"}},
      {"protocols", {"support", "net", "crypto", "sim", "mempool", "overlay"}},
      {"hermes",
       {"support", "net", "crypto", "sim", "mempool", "overlay", "protocols"}},
      {"workload",
       {"support", "net", "crypto", "sim", "mempool", "overlay", "protocols",
        "hermes"}},
      {"fuzz",
       {"support", "net", "crypto", "sim", "mempool", "overlay", "protocols",
        "hermes", "workload"}},
      {"tools", all_src},
      {"bench", all_src},
  };
  return deps;
}

// Module of a repo-relative file path: the directory under src/, or the
// top-level tools/ / bench/ trees. Tests and examples are unscoped — they
// may reach anywhere (documented in DESIGN.md).
std::string module_of(const std::string& path) {
  if (starts_with(path, "src/")) {
    const std::size_t slash = path.find('/', 4);
    if (slash != std::string::npos) return path.substr(4, slash - 4);
    return "";
  }
  if (starts_with(path, "tools/")) return "tools";
  if (starts_with(path, "bench/")) return "bench";
  return "";
}

// Module of an include target: include paths are rooted at src/ (module
// includes are written `crypto/bignum.hpp`, not `src/crypto/bignum.hpp`),
// so the first path component names the module directly.
std::string include_module(const std::string& inc) {
  const std::size_t slash = inc.find('/');
  if (slash == std::string::npos) return "";  // same-dir or system header
  const std::string head = inc.substr(0, slash);
  return layer_deps().count(head) != 0 ? head : "";
}

}  // namespace

void check_layering(const Index& idx, std::vector<Finding>* out) {
  for (const FileIndex& fi : idx.files) {
    const std::string mod = module_of(fi.path);
    if (mod.empty()) continue;  // tests/examples/docs: unscoped
    const std::set<std::string>& allowed = layer_deps().at(mod);
    for (const IncludeDirective& inc : fi.includes) {
      if (starts_with(inc.path, "src/")) {
        out->push_back(
            {fi.path, inc.line, kLayering,
             "non-canonical include path '" + inc.path +
                 "'; module headers are rooted at src/ (write '" +
                 inc.path.substr(4) + "')"});
        continue;
      }
      const std::string target = include_module(inc.path);
      if (target.empty() || target == mod) continue;
      if (allowed.count(target) != 0) continue;
      out->push_back(
          {fi.path, inc.line, kLayering,
           "module '" + mod + "' must not include '" + inc.path +
               "' (module '" + target +
               "' is not below it in the layering DAG support <- {net, "
               "crypto} <- sim <- {mempool, overlay} <- protocols <- hermes "
               "<- workload <- fuzz <- {tools, bench})"});
    }
  }
}

// ---------------------------------------------------------------------------
// lock-discipline
// ---------------------------------------------------------------------------

void check_lock_discipline(const Index& idx, std::vector<Finding>* out) {
  // Part 1: guarded-field accesses. A member function of the owning class
  // that mentions the field must lock the guard mutex (RAII holder or
  // explicit .lock()) or carry HERMES_REQUIRES(the mutex). Constructors and
  // destructors are exempt: no other thread can hold a reference yet/still.
  for (const GuardedField& gf : idx.guarded_fields) {
    if (gf.mutex.empty()) continue;  // quiescence-guarded: quiescence rule
    for (const FunctionDef& fn : idx.functions) {
      if (fn.scope != gf.cls || fn.is_ctor_dtor) continue;
      if (fn.body_idents.count(gf.field) == 0) continue;
      if (fn.locked_mutexes.count(gf.mutex) != 0) continue;
      if (fn.required_mutexes.count(gf.mutex) != 0) continue;
      // Appended to a string that starts with the quote: a leading
      // `"'" + ...` trips g++ 12's -Wrestrict at -O3.
      std::string message = "'";
      message += qualified(fn) + "' accesses '" + gf.cls + "::" + gf.field +
                 "' (HERMES_GUARDED_BY '" + gf.mutex +
                 "') without locking it; take a lock_guard/unique_lock or "
                 "annotate the function HERMES_REQUIRES(" + gf.mutex + ")";
      out->push_back({fn.file, fn.line, kLockDiscipline, std::move(message)});
    }
  }

  // Part 2: HERMES_REQUIRES propagation. A call into a function that
  // requires a mutex must come from a caller that holds it (locked or
  // itself HERMES_REQUIRES). Only mutexes required by EVERY resolution
  // candidate are enforced, so an unrelated same-named function cannot
  // produce a false positive.
  for (const FunctionDef& caller : idx.functions) {
    for (const CallSite& call : caller.calls) {
      const std::vector<std::size_t> callees = idx.resolve(caller, call);
      if (callees.empty()) continue;
      std::set<std::string> needed = idx.functions[callees[0]].required_mutexes;
      for (std::size_t c = 1; c < callees.size() && !needed.empty(); ++c) {
        std::set<std::string> inter;
        const std::set<std::string>& rm =
            idx.functions[callees[c]].required_mutexes;
        std::set_intersection(needed.begin(), needed.end(), rm.begin(),
                              rm.end(), std::inserter(inter, inter.begin()));
        needed = std::move(inter);
      }
      for (const std::string& m : needed) {
        if (caller.locked_mutexes.count(m) != 0) continue;
        if (caller.required_mutexes.count(m) != 0) continue;
        const FunctionDef& callee = idx.functions[callees[0]];
        if (&callee == &caller) continue;  // self-recursion under REQUIRES
        out->push_back(
            {caller.file, call.line, kLockDiscipline,
             "call to '" + qualified(callee) + "' (HERMES_REQUIRES '" + m +
                 "') from '" + qualified(caller) +
                 "' which does not hold the lock"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// quiescence-safety
// ---------------------------------------------------------------------------

void check_quiescence(const Index& idx, std::vector<Finding>* out) {
  const std::size_t n = idx.functions.size();

  // Guarded set, discovered from source: functions that call
  // require_quiescent() directly, plus member functions that touch a
  // HERMES_GUARDED_BY_QUIESCENCE field of their own class (outside
  // construction). These may only run with every lane quiescent.
  std::vector<bool> guarded(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const FunctionDef& fn = idx.functions[i];
    if (fn.calls_require_quiescent && fn.name != "require_quiescent") {
      guarded[i] = true;
      continue;
    }
    if (fn.scope.empty() || fn.is_ctor_dtor) continue;
    for (const GuardedField& gf : idx.guarded_fields) {
      if (!gf.mutex.empty() || gf.cls != fn.scope) continue;
      if (fn.body_idents.count(gf.field) != 0) {
        guarded[i] = true;
        break;
      }
    }
  }

  // Entry points, discovered from source: functions whose body dispatches a
  // message payload (as<T>/try_as<T>) plus on_message overrides — these run
  // in lane context during the parallel window. A ShardScope-constructing
  // function is itself quiescent context, never a lane entry.
  std::vector<bool> entry(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const FunctionDef& fn = idx.functions[i];
    if (fn.makes_shard_scope || guarded[i]) continue;
    if (fn.has_dispatch || fn.name == "on_message") entry[i] = true;
  }

  // Per entry: BFS over non-deferred call edges. Edges out of guarded
  // functions are not expanded (the first guarded function on the path is
  // the finding); edges out of ShardScope makers are cut (their bodies run
  // quiescently). Deferred edges (inside defer/schedule_global argument
  // lists) are cut — that is precisely the sanctioned escape hatch.
  for (std::size_t e = 0; e < n; ++e) {
    if (!entry[e]) continue;
    const FunctionDef& efn = idx.functions[e];
    std::vector<std::size_t> parent(n, static_cast<std::size_t>(-1));
    std::vector<bool> seen(n, false);
    std::deque<std::size_t> queue;
    seen[e] = true;
    queue.push_back(e);
    // guarded-function qualified name -> path string (first hit is the
    // BFS-shortest; one finding per distinct mutator keeps the output
    // stable as unrelated call paths churn).
    std::map<std::string, std::string> hits;
    while (!queue.empty()) {
      const std::size_t cur = queue.front();
      queue.pop_front();
      const FunctionDef& fn = idx.functions[cur];
      if (cur != e && fn.makes_shard_scope) continue;
      for (const CallSite& call : fn.calls) {
        if (call.deferred) continue;
        for (std::size_t next : idx.resolve(fn, call)) {
          if (seen[next]) continue;
          seen[next] = true;
          parent[next] = cur;
          if (guarded[next]) {
            const std::string key = qualified(idx.functions[next]);
            if (hits.count(key) == 0) {
              std::string path = qualified(idx.functions[next]);
              for (std::size_t p = cur; p != static_cast<std::size_t>(-1);
                   p = parent[p]) {
                path = qualified(idx.functions[p]) + " -> " + path;
              }
              hits.emplace(key, std::move(path));
            }
            continue;  // do not expand past a guarded function
          }
          queue.push_back(next);
        }
      }
    }
    for (const auto& [key, path] : hits) {
      out->push_back(
          {efn.file, efn.line, kQuiescenceSafety,
           "message handler '" + qualified(efn) +
               "' can reach quiescent-only '" + key +
               "' in lane context (path: " + path +
               "); route the mutation through Engine::defer / "
               "schedule_global or run it under ShardScope"});
    }
  }
}

}  // namespace detail
}  // namespace hermeslint
