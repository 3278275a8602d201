#!/bin/sh
# check-run-names.sh fails when a -run alternative in the Makefile or the
# CI workflow matches no test, fuzz or example function in the tree: a
# test renamed or moved would otherwise drop out of the flake budget and
# the race steps without a word. Run it from the repository root
# (make runnames).
set -eu

names=$(grep -rhoE '^func (Test|Fuzz|Example)[A-Za-z0-9_]*' --include='*_test.go' . | awk '{ print $2 }')
status=0
for file in Makefile .github/workflows/ci.yml; do
	for pattern in $(grep -oE -- "-run '[^']*'" "$file" | sed -e "s/^-run '//" -e "s/'\$//"); do
		case $pattern in
		'^$' | '^$$') continue ;;
		esac
		for alt in $(printf '%s\n' "$pattern" | tr '|' ' '); do
			if ! printf '%s\n' "$names" | grep -qE -- "$alt"; then
				echo "$file: -run alternative '$alt' names no test" >&2
				status=1
			fi
		done
	done
done
exit $status
