#!/bin/sh
# loc: count the non-test Go lines outside perfbench/ (the size figure
# CHANGES.md and ROADMAP.md report for simplicity work).
cd "$(dirname "$0")/.." && find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.git/*' -exec cat {} + | wc -l
