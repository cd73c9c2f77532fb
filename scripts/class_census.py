#!/usr/bin/env python3
"""Count distinct SE-model classes by brute enumeration and compare with the closed form.

Takes the SE-model set of each of the 7^n letter words per alphabet size, which
covers every rule's SE-set, as the bits of the full set minus the word's two
countermodel products. The words come from the one list the class table also
reads: each word is one packed mask integer plus its two products' bits, and a
word of k + 1 atoms extends its k-atom prefix's products by one product step,
so no SE-set object is built per word. The census counts the distinct products
(the tautology class included) without building the class table, and the count
is checked against 6^n - 4^n + 3^n + 1 and against the number of canonical
rules plus one. Only that last column exhausts all 16^n rules.
"""
from __future__ import annotations

import argparse
import string
import time

from sekit import Alphabet, count_se_classes, enumerate_rules, is_canonical


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-size", type=int, default=3, help="largest alphabet size (default 3)")
    args = ap.parse_args()

    print(f"{'n':>2} {'classes':>8} {'closed form':>12} {'canonical+1':>12} {'seconds':>8}")
    for n in range(1, args.max_size + 1):
        alphabet = Alphabet(tuple(string.ascii_lowercase[:n]))
        start = time.perf_counter()
        counted = count_se_classes(alphabet, rule_cap=n)
        elapsed = time.perf_counter() - start
        closed = 6 ** n - 4 ** n + 3 ** n + 1
        canonical = sum(1 for r in enumerate_rules(alphabet, cap=n) if is_canonical(r)) + 1
        flag = "" if counted == closed == canonical else "  MISMATCH"
        print(f"{n:>2} {counted:>8} {closed:>12} {canonical:>12} {elapsed:>8.2f}{flag}")


if __name__ == "__main__":
    main()
