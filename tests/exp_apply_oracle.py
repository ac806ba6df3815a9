"""The eps-series exponential in plain Fractions, term by term: the form
`umbra.opcalc.formal.exp_apply` had before it ran on cleared integers.

    exp(T) state = sum_{m <= cap} T^m state / m!,

each T^m state / m! taken from the last by one application of T and one
division by m, and added into the total, whose zero coefficients are dropped.
"""
from umbra.opcalc.operators import apply_operator


def exp_apply_fractions(terms, state, cap):
    total = dict(state)
    current = state
    for m in range(1, cap + 1):
        current = {key: c / m for key, c in apply_operator(terms, current, cap).items()}
        if not current:
            break
        for key, c in current.items():
            c += total.get(key, 0)
            if c:
                total[key] = c
            else:
                total.pop(key, None)
    return total
