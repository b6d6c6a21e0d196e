"""End-to-end tour of the workbench on the worked examples.

Runs the dimension pipeline, the ideal/congruence gap demonstration, the
elimination-axiom dichotomy and the realizability check, then renders the
tropical line to showcase_line.svg next to this script.
"""

import random
from pathlib import Path

from tropica.krull import coordinate_dimension
from tropica.parsing import format_polynomial, parse_polynomial
from tropica.polynomials import LAURENT, POLY
from tropica.primes import check_admissible, geometric_prime_of_point
from tropica.rendering import render_svg
from tropica.sampling import prime_members, random_point
from tropica.traces import load_trace, verify_trace
from tropica.tropical_linear import (
    MembershipSample,
    check_tropical_axiom,
    monomial_window,
    span_membership,
    truncated_tropicalization,
)
from tropica.varieties import hypersurface

REPO = Path(__file__).resolve().parent.parent


def header(title: str) -> None:
    print(f"\n== {title} ==")


def dimension_reports() -> None:
    header("coordinate semiring dimension")
    for texts in (["x + 1", "y + 2"], ["x + y + 0"], ["x + y + z + 0"]):
        n = max(parse_polynomial(t).n for t in texts)
        gens = [parse_polynomial(t, LAURENT, n) for t in texts]
        report = coordinate_dimension(gens)
        print(
            f"  gens={texts}: variety dim {report.variety_dim}, "
            f"coordinate dim {report.coordinate_dim}, witness rows {report.witness.to_json()}"
        )


def ideal_congruence_gap() -> None:
    header("ideal vs congruence gap for {x+y, x+z}")
    gens = [parse_polynomial("x + y", POLY, 3), parse_polynomial("x + z", POLY, 3)]
    target = parse_polynomial("y + z", POLY, 3)
    print("  y + z in the degree-1 span:", span_membership(target, gens) is not None)
    for name in ("sum_bend_left", "sum_bend_right"):
        trace = load_trace(REPO / "traces" / f"{name}.json")
        result = verify_trace(trace)
        goal = (format_polynomial(trace.goal.left), format_polynomial(trace.goal.right))
        print(f"  trace {name}: goal {goal} accepted={result.accepted}")


def elimination_dichotomy() -> None:
    header("monomial elimination axiom")
    rng = random.Random(1)
    window = monomial_window(2, POLY, 2)
    point = random_point(rng, 2, -2, 2, 2)
    # 1 and x^2 tie at the coefficient gap 2 * point[0], an integer in -4..4, so draws find members
    sample = prime_members(rng, geometric_prime_of_point(point), window, 12)
    result = check_tropical_axiom(sample)
    print(f"  geometric prime at {tuple(map(str, point))}: passed={result.passed}")

    matrix = check_admissible([[0, 1, 1]], 2)
    f = parse_polynomial("x + y + x^-1", LAURENT, 2)
    g = parse_polynomial("x + y + x^-2", LAURENT, 2)
    result = check_tropical_axiom(MembershipSample((f, g), matrix))
    cf, _, cu = result.counterexample
    print(
        f"  degree-order prime [[0,1,1]]: passed={result.passed} "
        f"(counterexample eliminates {cu} from {format_polynomial(cf)})"
    )


def realizability() -> None:
    header("tropicalized principal ideal (x - y), degree <= 3")
    circuits = truncated_tropicalization([{(1, 0): 1, (0, 1): -1}], 2, 3)
    print(f"  {len(circuits.circuits)} circuits")
    product = parse_polynomial("x + y + 0", POLY, 2) * parse_polynomial("x + y + x*y", POLY, 2)
    for label, poly in [
        ("(x+y+0)(x+y+xy)", product),
        ("x+y+0", parse_polynomial("x + y + 0", POLY, 2)),
        ("x+y+xy", parse_polynomial("x + y + x*y", POLY, 2)),
    ]:
        print(f"  member({label}) = {circuits.member(poly.collapse_coefficients())}")


def render_line() -> None:
    header("rendering")
    svg = render_svg(hypersurface(parse_polynomial("x + y + 0")), (-5, -5, 5, 5))
    out = Path(__file__).resolve().parent / "showcase_line.svg"
    out.write_text(svg)
    print(f"  wrote {out}")


def main() -> None:
    dimension_reports()
    ideal_congruence_gap()
    elimination_dichotomy()
    realizability()
    render_line()


if __name__ == "__main__":
    main()
