#!/usr/bin/env sh
# Documentation consistency check, run as a CTest test (see
# tests/CMakeLists.txt). Fails if:
#   1. any markdown file contains a relative link to a file that does not
#      exist, or an intra-docs anchor (in-page or cross-file #section) that
#      matches no heading in the target file, or
#   2. a bench target registered in bench/CMakeLists.txt is missing from
#      EXPERIMENTS.md, or
#   3. a test target registered in tests/CMakeLists.txt is mentioned in no
#      markdown doc at all, or
#   4. a doc references a ctest-style test name (test_*) that no CMakeLists
#      registers, or
#   5. a required doc file is missing, or
#   6. a repo path a required doc writes in backticks names no file.
#
# Usage: scripts/check_docs.sh [repo-root]   (defaults to the script's parent)

set -u

root=${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}
cd "$root" || exit 2

fail=0

# GitHub-style anchor of every heading in $1: lowercase, punctuation other
# than [a-z0-9 _-] stripped, spaces to hyphens.
heading_anchors() {
  sed -n 's/^#\{1,6\} \{1,\}//p' "$1" \
    | tr 'A-Z' 'a-z' \
    | sed 's/[^a-z0-9 _-]//g; s/ /-/g'
}

# --- 1. relative markdown links and intra-docs anchors -------------------
# Extract ](target) occurrences from every tracked .md file; skip absolute
# URLs and mailto; resolve relative paths against the linking file's
# directory and require the target to exist; when the link carries a
# #fragment into a markdown file, require a matching heading there.
for md in $(find . -name '*.md' -not -path './build/*' -not -path './.git/*'); do
  dir=$(dirname "$md")
  # One link target per line; tolerate multiple links per line.
  for target in $(grep -o ']([^)]*)' "$md" | sed 's/^](//; s/)$//'); do
    case $target in
      http://*|https://*|mailto:*) continue ;;
    esac
    path=${target%%#*}                # file part ("" = in-page link)
    anchor=""
    case $target in
      *\#*) anchor=${target#*#} ;;
    esac
    if [ -n "$path" ] && [ ! -e "$dir/$path" ]; then
      echo "BROKEN LINK: $md -> $target"
      fail=1
      continue
    fi
    if [ -n "$anchor" ]; then
      anchored_file="$md"
      [ -n "$path" ] && anchored_file="$dir/$path"
      case $anchored_file in
        *.md)
          if ! heading_anchors "$anchored_file" | grep -qx "$anchor"; then
            echo "DANGLING ANCHOR: $md -> $target (no such heading)"
            fail=1
          fi ;;
      esac
    fi
  done
done

# --- 2. bench targets must appear in EXPERIMENTS.md ----------------------
for b in $(sed -n 's/^sym_add_bench(\([a-z0-9_]*\) .*/\1/p' bench/CMakeLists.txt); do
  if ! grep -q "$b" EXPERIMENTS.md; then
    echo "MISSING FROM EXPERIMENTS.md: bench target $b"
    fail=1
  fi
done

# --- 3. test targets must be mentioned somewhere in the docs -------------
docs="README.md EXPERIMENTS.md DESIGN.md ROADMAP.md docs/ARCHITECTURE.md docs/PVARS.md docs/SERVICES.md docs/STATIC_ANALYSIS.md docs/SCENARIOS.md"
for t in $(sed -n 's/^sym_add_test(\([a-z0-9_]*\) .*/\1/p' tests/CMakeLists.txt); do
  if ! grep -q "$t" $docs 2>/dev/null; then
    echo "UNDOCUMENTED TEST TARGET: $t (mention it in one of: $docs)"
    fail=1
  fi
done

# --- 4. docs may only reference ctest names that exist -------------------
# Every test_* token in the docs must be a registered test target (either a
# sym_add_test binary or an explicit add_test NAME, e.g. the sanitizer
# re-runs). Catches docs that survived a test rename.
known_tests=$({
  sed -n 's/^ *sym_add_test(\([a-z0-9_]*\) .*/\1/p' tests/CMakeLists.txt
  sed -n 's/.*add_test(NAME \([a-z0-9_]*\).*/\1/p' \
      tests/CMakeLists.txt bench/CMakeLists.txt
} | sort -u)
for name in $(grep -ho 'test_[a-z0-9_]*' $docs 2>/dev/null | sort -u); do
  if ! printf '%s\n' "$known_tests" | grep -qx "$name"; then
    echo "NONEXISTENT TEST REFERENCED: $name (not registered in any CMakeLists)"
    fail=1
  fi
done

# --- 5. required docs must exist ------------------------------------------
for req in $docs; do
  if [ ! -f "$req" ]; then
    echo "MISSING REQUIRED DOC: $req"
    fail=1
  fi
done

# --- 6. backticked repo paths in the required docs must exist ------------
# A backticked span that is one path under src/, examples/, bench/, tools/,
# scripts/ or tests/ must name an existing file or directory. A glob
# (`bench/ablation_*`) must match at least one file, and a bench or example
# path may name its target without the `.cpp`. Catches docs that survived a
# deletion or a rename.
paths=$(grep -ho '`[^`]*`' $docs 2>/dev/null | tr -d '`' \
          | grep -E '^(src|examples|bench|tools|scripts|tests)/[^[:space:]]*$' \
          | sort -u)
while IFS= read -r p; do
  [ -n "$p" ] || continue
  case $p in
    *'*'*|*'?'*|*'['*)
      set -- $p                       # pathname expansion of the glob
      [ -e "$1" ] && continue ;;
    *)
      { [ -e "$p" ] || [ -e "$p.cpp" ]; } && continue ;;
  esac
  echo "STALE PATH: $p (backticked in a doc, names no file in the repo)"
  fail=1
done <<EOF
$paths
EOF

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED"
  exit 1
fi
echo "check_docs: OK"
exit 0
