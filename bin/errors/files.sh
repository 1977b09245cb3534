#!/bin/sh
# Every file a command opens, reads or writes, named where it cannot be:
# each case prints the command's stderr, one line naming the file, then
# its exit code.  [errors] is a directory; [missing/] does not exist.
njq=$1
q='select s.sname from s in SUPPLIER'
check() {
  "$@" 2>&1 >/dev/null
  echo "exit $?"
}
check "$njq" run -n 8 -q "$q" --qlog missing/f.jsonl
check "$njq" serve -n 8 -q 'select p.pname from p in PART where p.price = ?0' \
  --params 3 --requests 4 --qlog missing/q.jsonl
check "$njq" explain -n 8 -q "$q" --trace-out missing/t.json
check "$njq" run -n 8 -q "$q" --save-db missing/db
check "$njq" catalog pack -n 8 -o missing/x.njqc
check "$njq" run -q "$q" --schema missing.oosql
check "$njq" run -q "$q" --schema errors
check "$njq" run -q "$q" --db errors
check "$njq" top errors
check "$njq" log errors
NJQ_QLOG=missing/q.jsonl check "$njq" repl -n 8
