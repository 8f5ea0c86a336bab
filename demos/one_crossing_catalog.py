"""The one-crossing diagrams (m, n) and their classification data.

Each diagram has a single crossing with a block of |m| signed lines on
one arc and |n| on the other.  A crossing change relates (m, n) with
sign eps to (n-1, m+1) with sign -eps, so the degree-k diagrams
(m, k-m) come in parity pairs {m, k-1-m}.  Every one of them has
essential count k, so the count does not tell the pairs apart, and
distinct pairs are not a proof of inequivalence.
"""

import dlknot as dl


def main():
    print("closed-form essential counts on a grid (rows m, cols n):")
    rng = range(-3, 4)
    print("      " + "".join(f"{n:4}" for n in rng))
    for m in rng:
        row = "".join(f"{dl.essential_count_closed_form(m, n):4}" for n in rng)
        print(f"  {m:3} {row}")
    print()

    for k in (3, 4, 5, 6, 7):
        fam = dl.degree_k_family(k)
        reps = ", ".join(f"({c.m},{c.n})" for c in fam)
        print(f"degree {k}: {len(fam)} parity pairs: {reps}")
    print()

    print("stretching (1, 2) inside degree 3 (counts strictly grow):")
    for c, count in dl.stretch_family(1, 3, 4):
        print(f"  ({c.m:3},{c.n:4})  essential count {count}")


if __name__ == "__main__":
    main()
