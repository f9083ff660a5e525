#!/bin/sh
# Tier-1 CI, one step per call: ci/tier1.sh STEP, from the repository root.
# .github/workflows/tier1.yml runs each step on Python 3.10 and 3.11 (the
# sanitizer and benchmark steps on 3.11 only); run by hand, a step uses the
# `python` on PATH. Steps call the CLI as `python -m tddq.cli` from src/, so
# they need no install. A step whose tool is missing (clang, pip, gcc's
# sanitizer runtimes) reports "skipped" and passes, except under GitHub
# Actions, where it fails.
#
# Steps: clang install tests tests-no-cc sanitize sweep-cmp validate readme
#        bench-smoke residual
set -eu

step=${1:?usage: ci/tier1.sh STEP (see the list at the top of this file)}
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
py=$(python -c 'import sys; print(sys.executable)')
# a command with only the interpreter's directory on PATH: no C compiler
# is found, so every run uses the Python twins of the kernel
no_cc() { env PATH="$(dirname "$py")" "$@"; }
if [ -n "${RUNNER_TEMP:-}" ]; then
    tmp=$RUNNER_TEMP
else
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
fi

need() {
    command -v "$1" >/dev/null 2>&1 && return 0
    if [ "${GITHUB_ACTIONS:-}" = true ]; then
        echo "$step: $1 not found" >&2
        exit 1
    fi
    echo "$step: skipped, $1 not found"
    exit 0
}

case $step in
clang)
    need clang
    clang -std=c99 -O2 -Wall -Wextra -Wpedantic -Werror -ffp-contract=off \
        -c src/tddq/_schedule.c -o "$tmp/schedule.o"
    ;;
install)
    need pip
    "$py" -m pip install -e ".[test]"
    tddq --help > /dev/null  # the installed entry point, which other steps do not use
    ;;
tests)
    "$py" -X dev -m pytest -q --continue-on-collection-errors --durations=10
    ;;
tests-no-cc)
    no_cc "$py" -X dev -m pytest -q --continue-on-collection-errors --durations=10
    ;;
sanitize)
    # the kernel built under AddressSanitizer and UBSan by a `cc` wrapper
    # first on PATH (`_kernel()` runs `cc`), with their runtimes preloaded
    # into the uninstrumented interpreter; `--capture=sys` leaves the file
    # descriptors alone, so a sanitizer report reaches the log
    need gcc
    asan=$(gcc -print-file-name=libasan.so)
    ubsan=$(gcc -print-file-name=libubsan.so)
    [ -e "$asan" ] && [ -e "$ubsan" ] || need libasan.so
    mkdir -p "$tmp/sanitize"
    printf '#!/bin/sh\nexec /usr/bin/cc -fsanitize=address,undefined -fno-sanitize-recover=all -g "$@"\n' \
        > "$tmp/sanitize/cc"
    chmod +x "$tmp/sanitize/cc"
    PATH="$tmp/sanitize:$PATH" LD_PRELOAD="$asan $ubsan" ASAN_OPTIONS=detect_leaks=0 \
        "$py" -m pytest -q --capture=sys tests/
    ;;
sweep-cmp)
    # the compiled draw, loop and writer against their Python twins at the
    # paper's config (aligned starts): the first run fails if the kernel
    # does not build
    flags="--config experiments/fig3.cfg --horizon 20000 --seed 7"
    PYTHONWARNINGS=error::RuntimeWarning "$py" -m tddq.cli sojourn-sweep $flags \
        --out "$tmp/sweep-c.csv"
    no_cc "$py" -m tddq.cli sojourn-sweep $flags --out "$tmp/sweep-py.csv"
    cmp "$tmp/sweep-c.csv" "$tmp/sweep-py.csv"
    ;;
validate)
    # validate's oracle runs (its M/M/1 check is a coupled run in the
    # exponential mode), compiled and Python alike
    PYTHONWARNINGS=error::RuntimeWarning "$py" -m tddq.cli validate --horizon 20000 \
        > "$tmp/validate-c.txt"
    cat "$tmp/validate-c.txt"
    no_cc "$py" -m tddq.cli validate --horizon 20000 > "$tmp/validate-py.txt"
    cmp "$tmp/validate-c.txt" "$tmp/validate-py.txt"
    ;;
readme)
    # README's example runs as written, so the documented API cannot drift
    awk '/^## Library use/{f=1} f&&/^```python/{p=1;next} p&&/^```/{exit} p' README.md | "$py" -
    ;;
bench-smoke)
    # scipy only because bench/run.py records its version; a workload fails
    # the step by exiting nonzero or by any failed check. At --seconds 3,
    # trace-packets times one cold pass that includes the kernel's cc
    # build, so only its check_pass_ratio counts here, not its timings
    "$py" -c 'import scipy' 2>/dev/null || "$py" -m pip install scipy
    for workload in fig3-sweep trace-packets closed-form; do
        "$py" bench/run.py --workload "$workload" --seconds 3 --seed 1 > "$tmp/bench-$workload.txt"
        cat "$tmp/bench-$workload.txt"
        tail -n 1 "$tmp/bench-$workload.txt" | "$py" -c 'import json, sys
ratio = json.load(sys.stdin)["metrics"]["check_pass_ratio"]["value"]
sys.exit(0 if ratio >= 1 else f"check_pass_ratio {ratio} below 1")'
    done
    ;;
residual)
    for family in exponential truncated-exponential uniform empirical; do
        flags="--family $family --rate 0.7 --s-long 10 --samples 20000 --seed 5"
        if [ "$family" = empirical ]; then flags="$flags --empirical-samples 0.5,2,7.5"; fi
        "$py" -m tddq.cli residual-cdf $flags --out "$tmp/residual-cdf-$family.csv"
        "$py" -m tddq.cli cycle-time $flags --out "$tmp/cycle-time-$family.csv"
    done
    ;;
*)
    echo "unknown step: $step" >&2
    exit 2
    ;;
esac
