#!/bin/sh
# Every value a lib/ interface exports must be named somewhere outside
# its own module: an export nothing calls is dead code, or a helper that
# belongs out of the .mli.  For each `val` in lib/**/*.mli, the name,
# matched as a word, must occur in some .ml/.mli under lib, bin, bench,
# test, examples or _perfbench/src other than the module's own two
# files.  Word matching cannot flag a used name; it can miss a dead one
# that shares a word with something else.  Run from the repository root.
set -eu

dirs="lib bin bench test examples _perfbench/src"
unused=0
for mli in $(find lib -name '*.mli' | sort); do
  ml="${mli%i}"
  for name in $(sed -n "s/^val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u); do
    # shellcheck disable=SC2086
    if ! grep -rlw --include='*.ml' --include='*.mli' -e "$name" $dirs \
         | grep -v -x -e "$ml" -e "$mli" -q; then
      echo "unused export: $mli: $name"
      unused=1
    fi
  done
done

if [ "$unused" -ne 0 ]; then
  echo "every exported lib/ value must have a caller outside its module" >&2
  exit 1
fi
echo "ok: every exported lib/ value has a caller outside its module"
