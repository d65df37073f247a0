#!/bin/sh
# Prints the size metrics ROADMAP.md tracks, using only the go tool and
# POSIX utilities:
#
#   loc      non-test Go lines of the root module (perfbench, a module of
#            its own, is excluded)
#   sgmldb   exported symbols of package sgmldb
#   service  exported symbols of package internal/service
#
# An exported symbol is one `go doc -all` entry: a function, method,
# type, constant or variable, plus every exported struct field.
#
# Usage: sh scripts/size.sh   (from the repository root; `make size`)
set -eu

loc=$(find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' -exec cat {} + | wc -l)

# symbols counts the exported entries of one package's `go doc -all`.
symbols() {
	go doc -all "$1" | awk '
		/^(const|var) \(/ { blk = "names"; next }
		/^type [A-Z][A-Za-z0-9_]* struct \{/ { n++; blk = "fields"; next }
		blk != "" && /^[)}]/ { blk = ""; next }
		blk != "" && /^\t[A-Z][A-Za-z0-9_]*[ ,=]/ { n++; next }
		/^(func|type) / || /^(const|var) [A-Z]/ { n++ }
		END { print n + 0 }'
}

echo "loc     $(echo $loc)"
echo "sgmldb  $(symbols .)"
echo "service $(symbols ./internal/service)"
