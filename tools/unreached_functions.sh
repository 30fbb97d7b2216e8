#!/usr/bin/env bash
# Lists the flare:: functions that no shipped program can reach.
#
#   tools/unreached_functions.sh [build-dir]   (default: a fresh temp dir)
#
# Builds the libraries, the `flare` CLI, every example, every bench/ program
# and perfbench's `flarebench` at -O0 -ffunction-sections -fdata-sections
# (at -O0 nothing is inlined, so a live function always keeps its own
# section; per-function data sections keep a switch's jump table from
# pinning its function through the shared .rodata). Each program is
# then relinked with every libflare_*.a under --whole-archive plus
# --gc-sections --print-gc-sections, and the .text sections that every
# program's link drops are intersected. Left out of the result:
#   - COMDAT (weak) sections: inline and template code, which every
#     translation unit that uses it emits;
#   - C2/D2 base-object constructor and destructor variants, which are
#     dropped whenever only the complete-object variant is called.
# The remaining names are demangled, and the flare:: ones missing from
# tools/unreached_allow.txt (lines `<demangled name> # <reason>`) are
# printed. Exits 1 when any is printed.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
allow="$root/tools/unreached_allow.txt"
cxx=${CXX:-g++}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
build=${1:-$work/build}
flags="-O0 -ffunction-sections -fdata-sections"

cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS_DEBUG="$flags" >/dev/null

targets=(flare)
for src in "$root"/examples/*.cpp "$root"/bench/*.cpp; do
  targets+=("$(basename "$src" .cpp)")
done
cmake --build "$build" -j "${JOBS:-4}" --target "${targets[@]}" >/dev/null

mapfile -t libs < <(find "$build/src" -name 'libflare_*.a' | sort)

# flarebench belongs to perfbench's own CMake project; its sources need only
# the library headers, so compile them here with the same flags. Its main()
# returns at once unless NDEBUG is defined, and the compiler drops the code
# after that return even at -O0, so NDEBUG is needed for its calls to count.
mkdir -p "$work/flarebench"
for src in "$root"/perfbench/cpp/*.cpp; do
  "$cxx" -std=c++20 $flags -DNDEBUG -I"$root/src" -I"$root/perfbench/cpp" \
    -DFLAREBENCH_BUILD_TYPE='"Release"' \
    -c "$src" -o "$work/flarebench/$(basename "$src" .cpp).o"
done

# Prints the .text sections that a whole-archive link of the given objects
# drops, one mangled symbol name per line. ld names a COMDAT section with its
# group signature in brackets; those are skipped here.
dropped() {
  "$cxx" -o "$work/a.out" "$@" -Wl,--whole-archive "${libs[@]}" \
    -Wl,--no-whole-archive -Wl,--gc-sections -Wl,--print-gc-sections \
    -pthread 2>&1 >/dev/null |
    sed -n "s/.*removing unused section '\.text\.\([^'[]*\)'.*/\1/p" |
    sort -u
}

dropped "$work"/flarebench/*.o >"$work/common"
for t in "${targets[@]}"; do
  mapfile -t objs < <(find "$build" -path "*/CMakeFiles/$t.dir/*" -name '*.o')
  [ "${#objs[@]}" -gt 0 ] || { echo "no objects for $t" >&2; exit 2; }
  dropped "${objs[@]}" | comm -12 "$work/common" - >"$work/next"
  mv "$work/next" "$work/common"
done

nm --defined-only "${libs[@]}" 2>/dev/null |
  awk '$2 == "W" || $2 == "V" { print $3 }' | sort -u >"$work/weak"

comm -23 "$work/common" "$work/weak" |
  grep -Ev '[CD]2E' |
  c++filt |
  grep '^flare::' |
  sort -u >"$work/unreached" || true

sed 's/ # .*//' "$allow" | sort -u >"$work/allowed"
comm -23 "$work/unreached" "$work/allowed" >"$work/new"
cat "$work/new"
if [ -s "$work/new" ]; then
  echo "unreached_functions: names above are reached by no shipped program;" \
    "delete them, or list them in tools/unreached_allow.txt with a reason" >&2
  exit 1
fi
