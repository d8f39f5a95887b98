"""Build the degenerate-breakdown kernel and print its certificate."""

from liesegang import degenerate, rings


def main():
    cons = degenerate.construct_degenerate()
    print("template zeros:        x1 =", cons.x1, " x2 =", cons.x2)
    print("gap shift epsilon:    ", cons.epsilon)
    print("breakdown at x2+eps:  ", cons.x2 + cons.epsilon)
    print("gluing radius r:      ", cons.r)
    print("head radius r*:       ", cons.r_star)
    print("tail power n:         ", cons.n_power)
    print("mixing weight lambda*:", cons.lambda_star)
    kern = cons.result
    print("mass check int K_hat: ", kern.cum(0.0, 1.0), "vs template",
          cons.template.cum(0.0, 1.0))
    ok = degenerate.verify_degeneracy(cons)
    print("degeneracy verified:  ", ok)

    pattern = rings.solve_pattern(kern, max_zeros=4)
    print("pattern zeros:        ", [f"{z:.8f}" for z in pattern.zeros])
    print("classification:       ", pattern.classification.value)
    x = cons.x2 + cons.epsilon + 1e-4
    pos = rings.omega_eval(kern, [0.0, cons.x1, cons.x2 + cons.epsilon], x)
    neg = rings.omega_eval(kern, [0.0, cons.x1], x)
    print(f"just past breakdown:   ring candidate {pos:+.3e} (< 0), "
          f"gap candidate {neg:+.3e} (> 0)")


if __name__ == "__main__":
    main()
