#!/usr/bin/env bash
# Run every row of console-table.txt through the `hardysys` on PATH; stop at
# the first row whose exit code or stderr line count is not the one it names,
# or that writes to stdout though it exits non-zero.
# Usage: bash .github/console-table.sh <temporary directory>
set -eo pipefail
tmp=${1:?usage: console-table.sh <temporary directory>}
rows=0
while read -r want args; do
  case $want in ''|'#'*) continue ;; esac
  args=${args//'{tmp}'/$tmp}
  code=0
  hardysys $args > "$tmp/console-table.out" 2> "$tmp/console-table.err" \
    < /dev/null || code=$?
  err=$(cat "$tmp/console-table.err")
  lines=$(printf '%s' "$err" | grep -c '' || true)
  if [ "$code" -ne "$want" ] || [ "$lines" -ne "$(( want != 0 ))" ] \
     || { [ "$code" -ne 0 ] && [ -s "$tmp/console-table.out" ]; }; then
    echo "hardysys $args: exit $code"; echo "$err"; exit 1
  fi
  rows=$((rows + 1))
done < "$(dirname "$0")/console-table.txt"
echo "$rows console-script rows behave as listed"
