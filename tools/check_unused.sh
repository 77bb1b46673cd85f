#!/bin/sh
# Every value a lib/ interface exports must be used somewhere outside its
# own module: an export nothing calls is dead code, or a helper that
# belongs out of the .mli.  For each `val name` in lib/**/m.mli (a `val`
# inside `module P : sig ... end` there is an export of P), some
# .ml/.mli under lib, bin, bench, test, examples or _perfbench/src other
# than m.ml and m.mli must name it in one of these forms:
#   - qualified, M.name (also as the tail of a path, Rdb_x.M.name);
#   - through an alias, A.name, in a file that binds `module A = ...M`;
#   - as the bare word, in a file that opens M: `open M`, `let open M`,
#     `include M`, `M.( ... )`, `M.[ ... ]`, `M.{ ... }`, or `M.` at the
#     end of a line.
# A name that only shares a word with some other module's value does not
# count.  One awk pass over the sources builds the table of uses.  Run
# from the repository root.
set -eu

dirs="lib bin bench test examples _perfbench/src"
exports=$(mktemp)
trap 'rm -f "$exports"' EXIT

# "Module name path/to/m.mli", one line per export: a column-0 `val` is
# an export of M, an indented one between `module P : sig` and a
# column-0 `end` an export of P
for mli in $(find lib -name '*.mli' | sort); do
  base=${mli##*/}
  base=${base%.mli}
  first=$(printf '%s' "$base" | cut -c1 | tr '[:lower:]' '[:upper:]')
  mod="$first${base#?}"
  LC_ALL=C awk -v mod="$mod" -v mli="$mli" '
BEGIN {
  id = "[A-Za-z0-9_\047]*"
  sig_re = "^module[ \t]+[A-Z]" id "[ \t]*:[ \t]*sig"
  val_re = "^[ \t]*val[ \t]+[a-z_]" id
}
inner == "" && match($0, sig_re) {
  inner = $2; sub(/:.*/, "", inner)
  next
}
inner != "" && /^end/ { inner = ""; next }
match($0, val_re) {
  name = substr($0, RSTART, RLENGTH); sub(/^[ \t]*val[ \t]+/, "", name)
  if (inner != "") print inner, name, mli
  else if ($0 ~ /^val/) print mod, name, mli
}
' "$mli"
done | sort -u > "$exports"

# shellcheck disable=SC2086
sources=$(find $dirs \( -name '*.ml' -o -name '*.mli' \) | sort)

# shellcheck disable=SC2086
LC_ALL=C awk '
function last(path,   n, parts) {
  n = split(path, parts, ".")
  return parts[n]
}
# Record what the finished file uses; its own module is skipped.
function flush(   k, parts, m, w) {
  if (file == "") return
  for (k in quals) {
    split(k, parts, SUBSEP)
    m = (parts[1] in alias) ? alias[parts[1]] : parts[1]
    if (((m, parts[2]) in export) && file != own_mli[m] && file != own_ml[m])
      used[m, parts[2]] = 1
  }
  for (m in opened)
    if (file != own_mli[m] && file != own_ml[m])
      for (w in words)
        if ((m, w) in export) used[m, w] = 1
  split("", quals); split("", words); split("", opened); split("", alias)
}
BEGIN {
  id = "[A-Za-z0-9_\047]*"
  modid = "[A-Z]" id
  qual_re = modid "\\.[a-z_]" id
  word_re = "[a-z_]" id
  alias_re = "module[ \t]+" modid "[ \t]*=[ \t]*" modid "(\\." modid ")*"
  open_re = "(open!?|include)[ \t]+" modid "(\\." modid ")*"
  local_re = modid "\\.[([{]"
  eol_re = modid "\\.[ \t]*$"
}
FNR == NR {
  export[$1, $2] = 1
  own_mli[$1] = $3
  own_ml[$1] = substr($3, 1, length($3) - 1)
  names[++n_exports] = $1 SUBSEP $2 SUBSEP $3
  next
}
FNR == 1 { flush(); file = FILENAME }
{
  s = $0
  while (match(s, qual_re)) {
    tok = substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH)
    dot = index(tok, ".")
    quals[substr(tok, 1, dot - 1), substr(tok, dot + 1)] = 1
  }
  s = $0
  while (match(s, word_re)) {
    words[substr(s, RSTART, RLENGTH)] = 1; s = substr(s, RSTART + RLENGTH)
  }
  s = $0
  while (match(s, alias_re)) {
    tok = substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH)
    sub(/^module[ \t]+/, "", tok)
    eq = index(tok, "=")
    a = substr(tok, 1, eq - 1); sub(/[ \t]+$/, "", a)
    target = substr(tok, eq + 1); sub(/^[ \t]+/, "", target)
    alias[a] = last(target)
  }
  s = $0
  while (match(s, open_re)) {
    tok = substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH)
    sub(/^(open!?|include)[ \t]+/, "", tok)
    opened[last(tok)] = 1
  }
  s = $0
  while (match(s, local_re)) {
    tok = substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH)
    opened[substr(tok, 1, length(tok) - 2)] = 1
  }
  if (match($0, eol_re)) {
    tok = substr($0, RSTART, RLENGTH)
    opened[substr(tok, 1, index(tok, ".") - 1)] = 1
  }
}
END {
  flush()
  bad = 0
  for (i = 1; i <= n_exports; i++) {
    split(names[i], parts, SUBSEP)
    if (!((parts[1], parts[2]) in used)) {
      print "unused export: " parts[3] ": " parts[1] "." parts[2]
      bad = 1
    }
  }
  exit bad
}
' "$exports" $sources || {
  echo "every exported lib/ value must be used outside its module" >&2
  exit 1
}
echo "ok: every exported lib/ value is used outside its module"
