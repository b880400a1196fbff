#!/usr/bin/env bash
# Doc link/target checker, run as a ctest entry (`check_docs`).
#
# Scans README.md and docs/*.md for backticked references and fails when:
#   1. a path-like token (`src/...`, `docs/...`, `tests/...`, `bench/...`,
#      `examples/...`, `scripts/...`, `tools/...`) does not exist in the
#      repo, or
#   2. a build-target-like token (`bench_*`, `*_test`, `*_demo`, `sattn_cli`)
#      is not declared in any CMakeLists.txt, or
#   3. a required doc section is missing (the regression-gate workflow in
#      docs/OBSERVABILITY.md).
#
# Usage: check_docs.sh <repo-root>
set -u

root="${1:-.}"
cd "$root" || exit 2

fail=0

docs=(README.md)
while IFS= read -r f; do docs+=("$f"); done < <(find docs -name '*.md' | sort)

# All backticked tokens across the doc set, one per line.
tokens="$(grep -ho '`[^`]*`' "${docs[@]}" 2>/dev/null | tr -d '\`' | sort -u)"

# --- 1. path-like tokens must exist -----------------------------------------
while IFS= read -r tok; do
  [ -z "$tok" ] && continue
  case "$tok" in
    src/*|docs/*|tests/*|bench/*|examples/*|scripts/*|tools/*)
      # Strip trailing punctuation and any :line suffix.
      path="${tok%%:*}"
      path="${path%/}"
      # Skip tokens with shell/glob metacharacters (command lines, patterns).
      case "$path" in
        *' '*|*'*'*|*'<'*|*'>'*|*'$'*) continue ;;
      esac
      if [ ! -e "$path" ]; then
        echo "check_docs: missing path referenced in docs: $tok" >&2
        fail=1
      fi
      ;;
  esac
done <<< "$tokens"

# --- 2. target-like tokens must be declared in CMake ------------------------
cmake_text="$(cat CMakeLists.txt ./*/CMakeLists.txt 2>/dev/null)"
while IFS= read -r tok; do
  [ -z "$tok" ] && continue
  # Only bare single-word targets, no paths/spaces/flags.
  case "$tok" in
    *' '*|*/*|*-*|*=*|*.*) continue ;;
  esac
  case "$tok" in
    bench_*|*_test|*_demo|sattn_cli|quickstart)
      if ! printf '%s\n' "$cmake_text" | grep -q "(${tok}[ )]"; then
        echo "check_docs: docs mention target '$tok' not declared in any CMakeLists.txt" >&2
        fail=1
      fi
      ;;
  esac
done <<< "$tokens"

# --- 2b. markdown cross-references must resolve ------------------------------
# Relative [text](target) links between docs (and into the tree) must point
# at real files; dangling links rot silently as docs move.
for f in "${docs[@]}"; do
  dir="$(dirname "$f")"
  while IFS= read -r target; do
    [ -z "$target" ] && continue
    case "$target" in
      http://*|https://*|'#'*|mailto:*) continue ;;
    esac
    target="${target%%#*}"
    [ -z "$target" ] && continue
    if [ ! -e "$dir/$target" ] && [ ! -e "$target" ]; then
      echo "check_docs: dangling link in $f: ($target)" >&2
      fail=1
    fi
  done < <(grep -ho '](\([^)]*\))' "$f" 2>/dev/null | sed 's/^](//; s/)$//')
done

# --- 3. required sections ----------------------------------------------------
if ! grep -q '^## Run reports & regression gating' docs/OBSERVABILITY.md; then
  echo "check_docs: docs/OBSERVABILITY.md is missing the 'Run reports & regression gating' section" >&2
  fail=1
fi

if ! grep -q '^## Resource accounting & cost-model validation' docs/OBSERVABILITY.md; then
  echo "check_docs: docs/OBSERVABILITY.md is missing the 'Resource accounting & cost-model validation' section" >&2
  fail=1
fi

# The live telemetry plane (NDJSON stream schema, alert glossary, engine_top)
# must stay documented alongside the metric names it defines.
if ! grep -q '^## Live telemetry & alerts' docs/OBSERVABILITY.md; then
  echo "check_docs: docs/OBSERVABILITY.md is missing the 'Live telemetry & alerts' section" >&2
  fail=1
fi

# The online quality audit (measured CRA, scorecards, the measured_cra_low
# alert, the bench_diff audit gate) must stay documented.
if ! grep -q '^## Online quality audit' docs/OBSERVABILITY.md; then
  echo "check_docs: docs/OBSERVABILITY.md is missing the 'Online quality audit' section" >&2
  fail=1
fi

# --- 3b. metric-name literals must be in the glossary ------------------------
# Every engine./audit./alert./sched. metric name hardcoded in src/ must appear
# backticked somewhere in docs/OBSERVABILITY.md — either verbatim or via a
# documented name family (a backticked prefix like `engine.kv_*`). New
# counters without glossary entries rot the observability contract.
while IFS= read -r name; do
  [ -z "$name" ] && continue
  if grep -qF "\`$name\`" docs/OBSERVABILITY.md; then continue; fi
  # Family fallback: `prefix_*` or `prefix.*` covering the name — but a
  # bare area family (`engine.*`, `audit.*`, ...) is not documentation,
  # only subfamilies like `engine.kv_*` count.
  prefix_ok=0
  while IFS= read -r fam; do
    fam="${fam%\*}"
    case "$fam" in
      engine.|audit.|alert.|sched.) continue ;;
    esac
    case "$name" in
      "$fam"*) prefix_ok=1; break ;;
    esac
  done < <(grep -ho '`[a-z_.]*\*`' docs/OBSERVABILITY.md | tr -d '\`*' | sort -u)
  if [ "$prefix_ok" -eq 0 ]; then
    echo "check_docs: metric '$name' (hardcoded in src/) is not in the docs/OBSERVABILITY.md glossary" >&2
    fail=1
  fi
done < <(grep -rhoE '"(engine|audit|alert|sched)\.[a-z0-9_]+[a-z0-9]"' src/ | tr -d '"' | sort -u)

for section in '^## Numeric contract' '^## Dispatch rules' \
               '^## Reproducing the scalar-vs-SIMD comparison'; do
  if ! grep -q "$section" docs/PERFORMANCE.md; then
    echo "check_docs: docs/PERFORMANCE.md is missing the required section matching '$section'" >&2
    fail=1
  fi
done

# The engine lifecycle-hardening contract (cancellation, KV backpressure,
# watchdog/breaker, drain, chaos harness) lives in ROBUSTNESS.md.
if ! grep -q '^## Lifecycle, overload & chaos' docs/ROBUSTNESS.md; then
  echo "check_docs: docs/ROBUSTNESS.md is missing the 'Lifecycle, overload & chaos' section" >&2
  fail=1
fi

# The serving-engine operator guide must keep its load-bearing sections
# (the engine architecture, the ragged kernel contract, the paged-KV /
# prefix-cache contract, the threading model, the metric mapping, and the
# bench walkthrough).
for section in '^## Architecture' '^## The ragged-batch kernel API' \
               '^## Paged KV & prefix cache' \
               '^## Threading and locking model' '^## Metrics' \
               '^## Running the serving bench'; do
  if ! grep -q "$section" docs/SERVING.md; then
    echo "check_docs: docs/SERVING.md is missing the required section matching '$section'" >&2
    fail=1
  fi
done

# The paged-KV storage model (page arena, prefix index, counted-once
# accounting) must stay summarized in the architecture overview.
if ! grep -q '^## Paged KV & prefix cache' docs/ARCHITECTURE.md; then
  echo "check_docs: docs/ARCHITECTURE.md is missing the 'Paged KV & prefix cache' section" >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED" >&2
  exit 1
fi
echo "check_docs: OK (${#docs[@]} files checked)"
