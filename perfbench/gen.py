"""Seeded input generators of the Otter benchmark.

Everything the program under test sees is made here from the workload seed:
the rand seeds of the paper scripts, the element-wise chain scripts of
`vector`, and the script pool plus arrival schedule of `service`. The same
seed gives the same inputs.
"""

import random

# Long-vector chains, sized like bench/micro_opt's micro_elemwise script:
# three 50000-element vectors (400 KB each) stay inside one core's 2 MiB L2.
CHAIN_N = 50000
CHAIN_ITERS = 40

# Each chain script has a fixed shape (so its cost does not swing with the
# seed); the seed picks the operators inside each slot and the constants.
# Operators are mostly cheap (+ - .* ./ abs sqrt), at most one sin/cos per
# iteration, so kernel overhead rather than libm sets the time. Every state
# update is bounded. The -O2 fuser turns each loop body into trees outside
# the Bin2/Un1/Axpy kernel patterns, which run in the generic postfix loop.
_VV = ["+", "-", ".*"]
_UN = ["sin", "cos"]


def _const(rng):
    return "%.3f" % rng.uniform(0.1, 0.9)


def _chain_body(rng, shape):
    """Loop body lines and element-ops per iteration for one chain shape."""
    v = lambda: rng.choice(_VV)
    u = lambda: rng.choice(_UN)
    c = lambda: _const(rng)
    if shape == 0:  # two-operand statements, cheap operators only
        lines = [
            "t1 = a %s b;" % v(),
            "t2 = t1 + c .* %s;" % c(),
            "t3 = t2 %s a;" % v(),
            "c = t3 ./ (1 + abs(t3));",
        ]
        ops = 1 + 2 + 1 + 3
    elif shape == 1:  # one transcendental, then a rational squash
        lines = [
            "t1 = %s(a %s b);" % (u(), v()),
            "t2 = sqrt(abs(t1)) + c .* %s;" % c(),
            "c = t2 ./ (2 + abs(t2 - b .* %s));" % c(),
        ]
        ops = 2 + 4 + 5
    else:  # wide generic trees
        lines = [
            "t1 = (a .* b + c .* %s) ./ (1 + abs(a - c));" % c(),
            "t2 = abs(t1) .* %s - b;" % c(),
            "c = %s(t2 + t1 .* a);" % u(),
        ]
        ops = 7 + 3 + 3
    return lines, ops


def chain_scripts(seed, count=3):
    """`count` chain scripts as (name, source, element_ops_per_run)."""
    rng = random.Random("chain-%d" % seed)
    out = []
    for k in range(count):
        shape = k % 3
        body, ops = _chain_body(rng, shape)
        src = "\n".join(
            ["n = %d;" % CHAIN_N, "iters = %d;" % CHAIN_ITERS,
             "a = rand(n, 1);", "b = rand(n, 1);", "c = zeros(n, 1);",
             "for it = 1:iters"]
            + ["  " + line for line in body]
            + ["end",
               "fprintf('chain%d checksum %%.6f\\n', sum(c) / n);" % k, ""])
        out.append(("chain%d" % k, src, CHAIN_N * CHAIN_ITERS * ops))
    return out


def script_seeds(seed, names):
    """One rand seed per paper script, drawn from the workload seed."""
    rng = random.Random("scripts-%d" % seed)
    return {name: rng.randrange(1, 1 << 31) for name in names}


def service_script(rng, ident):
    """A small request: a short scalar loop plus small-matrix ops.

    Matrix entries are integers, so every reduction is exact at np 1 and 2
    and the output is comparable byte for byte with the interpreter.
    """
    k = rng.randint(20, 60)
    a = rng.randint(2, 9)
    b = rng.randint(5, 13)
    r = rng.randint(4, 12)
    return "\n".join([
        "s = 0;",
        "for k = 1:%d" % k,
        "  s = s + mod(k * %d, %d);" % (a, b),
        "end",
        "m = floor(rand(%d, %d) * 10);" % (r, r),
        "v = m * ones(%d, 1) + s;" % r,
        "w = v .* 2 - %d;" % rng.randint(1, 9),
        "fprintf('svc%d %%d %%d\\n', s, sum(w) + sum(sum(m')));" % ident,
        "",
    ])


def service_plan(seed, rate, seconds, hot=16, cold_share=0.05):
    """Pool and open-loop schedule of the `service` workload.

    Returns (pool, schedule). pool maps a script key to
    {"script", "np", "rand_seed"}; schedule is a list of (due_s, key) with
    seeded Poisson arrivals at `rate` per second over `seconds`. A fixed
    share of the requests carries a script never seen before.
    """
    rng = random.Random("service-%d" % seed)
    pool = {}
    for i in range(hot):
        pool["hot%d" % i] = {"script": service_script(rng, i),
                             "np": 1 + i % 2,
                             "rand_seed": rng.randrange(1, 1 << 31)}
    due = []
    t = rng.expovariate(rate)
    while t < seconds:
        due.append(t)
        t += rng.expovariate(rate)
    cold_idx = set(rng.sample(range(len(due)), round(len(due) * cold_share)))
    schedule = []
    for i, d in enumerate(due):
        if i in cold_idx:
            key = "cold%d" % i
            pool[key] = {"script": service_script(rng, 1000 + i),
                         "np": 1 + i % 2,
                         "rand_seed": rng.randrange(1, 1 << 31)}
        else:
            key = "hot%d" % rng.randrange(hot)
        schedule.append((d, key))
    return pool, schedule
