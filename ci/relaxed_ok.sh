#!/bin/sh
# Every `Ordering::Relaxed` outside tests, benches, examples, fixtures, the
# `compat/` shims, build output and hidden directories carries a
# `relaxed-ok:` comment saying why no ordering is needed: on its line, in the
# comment block right above it, or in the block above the first line of its
# statement. A file is read up to its column-0 `#[cfg(test)]`, as the score
# step reads it. The check reads text, not tokens: a `Relaxed` inside a
# string literal counts.
#
# Usage: sh ci/relaxed_ok.sh [FILE...]
# Without a FILE it reads every such `.rs` file of the repository. It prints
# one line per finding and exits 1 if there is one.
set -eu
if [ "$#" -eq 0 ]; then
  cd "$(dirname "$0")/.."
  # shellcheck disable=SC2046 # the paths hold no whitespace
  set -- $(find . \( -name tests -o -name benches -o -name examples -o -name fixtures \
    -o -name compat -o -name target -o -name '.?*' \) -prune -o -name '*.rs' -print | sort)
fi
exec awk '
  FNR == 1 { above = 0; stmt = 0; fresh = 1 }
  /^#\[cfg\(test\)\]/ { nextfile }
  /^[[:space:]]*$/ { above = 0; next }
  /^[[:space:]]*\/\// { if (/relaxed-ok:/) above = 1; next }
  { if (fresh) stmt = above; fresh = 0 }
  /Ordering::Relaxed/ && !/relaxed-ok:/ && !above && !stmt { print FILENAME ":" FNR ": Ordering::Relaxed without a relaxed-ok: comment"; bad++ }
  { above = 0 }
  /[;{}][[:space:]]*(\/\/.*)?$/ { fresh = 1 }
  END { exit bad > 0 }
' "$@"
