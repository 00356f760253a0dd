#!/usr/bin/env bash
# Fail on dead relative links and stale source paths in the repo's
# markdown docs.
#
# Scans README.md and docs/*.md for [text](target) links, resolves each
# relative target against the file that contains it, and exits non-zero
# listing every target that does not exist. External links (http/https/
# mailto) and pure in-page anchors (#...) are skipped; a trailing
# #anchor on a file link is stripped before the existence check.
#
# It also checks backticked repo paths: the first word of every `...`
# span that starts with src/, bench/, tests/, examples/, scripts/ or
# perfbench/ must exist relative to the repo root. A binary name such as
# bench/bench_net counts as present when bench/bench_net.cpp exists;
# * globs and a {a,b} brace group are expanded.
#
#   ./scripts/check_doc_links.sh   # run from anywhere inside the repo

set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root" || exit 1

docs=(README.md)
while IFS= read -r f; do docs+=("$f"); done < <(find docs -name '*.md' 2>/dev/null | sort)

# path_exists PATH: PATH (each {a,b} alternative), PATH.cpp, or a glob
# match exists.
path_exists() {
  local p="$1"
  if [[ "$p" == *"{"*"}"* ]]; then
    local pre="${p%%\{*}" rest="${p#*\{}"
    local post="${rest#*\}}" alt
    local -a alts
    IFS=',' read -ra alts <<< "${rest%%\}*}"
    for alt in "${alts[@]}"; do path_exists "$pre$alt$post" || return 1; done
    return 0
  fi
  [ -e "$p" ] || [ -e "$p.cpp" ] || compgen -G "$p" > /dev/null
}

fail=0
checked=0
paths=0
for doc in "${docs[@]}"; do
  [ -f "$doc" ] || continue
  dir="$(dirname "$doc")"
  # Extract every (...) target of a markdown link.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*) continue ;;  # external
      '#'*) continue ;;                          # in-page anchor
    esac
    path="${target%%#*}"                         # strip #anchor
    [ -n "$path" ] || continue
    checked=$((checked + 1))
    if [ ! -e "$dir/$path" ]; then
      echo "DEAD LINK: $doc -> $target" >&2
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//')

  while IFS= read -r span; do
    path="${span%% *}"     # first word: drop arguments
    path="${path#./}"
    paths=$((paths + 1))
    if ! path_exists "$path"; then
      echo "STALE PATH: $doc -> $path" >&2
      fail=1
    fi
  done < <(grep -oE '`(\./)?(src|bench|tests|examples|scripts|perfbench)/[^`]*`' "$doc" |
           tr -d '`')
done

if [ "$fail" -ne 0 ]; then
  echo "doc link check failed" >&2
  exit 1
fi
echo "doc link check passed ($checked relative links and $paths source" \
  "paths across ${#docs[@]} files)"
