#!/bin/sh
# check-run-names.sh fails when a -run alternative in the Makefile or the
# CI workflow matches no test, fuzz or example function of the packages
# on its own command line (the whole tree for ./...): a test renamed or
# moved to another package would otherwise drop out of the flake budget
# and the race steps without a word. Run it from the repository root
# (make runnames).
set -eu

# tests prints the test, fuzz and example function names of the package
# directories given (./... = every package).
tests() {
	for pkg in "$@"; do
		case $pkg in
		./...) grep -rhoE '^func (Test|Fuzz|Example)[A-Za-z0-9_]*' --include='*_test.go' . ;;
		*) cat "${pkg%/}"/*_test.go 2>/dev/null | grep -oE '^func (Test|Fuzz|Example)[A-Za-z0-9_]*' ;;
		esac
	done | awk '{ print $2 }'
}

status=0
for file in Makefile .github/workflows/ci.yml; do
	lines=$(grep -E -- "-run '[^']*'" "$file" || true)
	while IFS= read -r line; do
		pattern=$(printf '%s\n' "$line" | grep -oE -- "-run '[^']*'" | sed -e "s/^-run '//" -e "s/'\$//")
		case $pattern in
		'^$' | '^$$') continue ;;
		esac
		pkgs=$(printf '%s\n' "$line" | tr ' ' '\n' | grep -E '^\.(/|$)' | tr '\n' ' ')
		pkgs=${pkgs% }
		names=$(tests ${pkgs:-.})
		for alt in $(printf '%s\n' "$pattern" | tr '|' ' '); do
			if ! printf '%s\n' "$names" | grep -qE -- "$alt"; then
				echo "$file: -run alternative '$alt' names no test in ${pkgs:-.}" >&2
				status=1
			fi
		done
	done <<EOF
$lines
EOF
done
exit $status
