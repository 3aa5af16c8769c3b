"""Print the invariant table of the built-in resolution family.

For each member of the skein-resolution tree of the first Elrifai knot this
reports components, signature, determinant, a thinness verdict, and the
HOMFLYPT polynomial in cleared (a, q) form.
"""

import argparse

from knotbound.braid import RESOLUTION_LABELS, closure_components, resolution_word, writhe
from knotbound.bounds import InconsistentThinness, thin_reconstruct
from knotbound.homfly import homfly
from knotbound.khovanov import braid_to_pd, reduced_khovanov
from knotbound.laurent import to_aq
from knotbound.seifert import seifert


def thinness_verdict(label: str, sigma: int) -> str:
    w = resolution_word(label)
    aq = to_aq(homfly(w))
    if aq.clearing != 0:
        return "link (not classified)"
    try:
        table = thin_reconstruct(aq, sigma)
    except InconsistentThinness:
        return "non-thin (sign clash)"
    kh = reduced_khovanov(braid_to_pd(w))
    if table.total_dim() == kh.total_rank():
        return "thin"
    return f"non-thin ({table.total_dim()} predicted vs {kh.total_rank()} actual)"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--labels", nargs="*", default=list(RESOLUTION_LABELS))
    args = parser.parse_args()

    header = f"{'label':6} {'comps':5} {'writhe':6} {'sig':4} {'det':4}  thinness"
    print(header)
    print("-" * len(header))
    for label in args.labels:
        w = resolution_word(label)
        sigma, det = seifert(w)
        print(
            f"{label:6} {closure_components(w):5} {writhe(w):6} "
            f"{sigma:4} {det:4}  {thinness_verdict(label, sigma)}"
        )
        print(f"       P = {to_aq(homfly(w)).render()}")


if __name__ == "__main__":
    main()
