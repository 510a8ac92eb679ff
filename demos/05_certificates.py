#!/usr/bin/env python3
"""
Non-squeezing certificates.

Whether a ball of area scale A1 can be contact-squeezed into one of scale A2
(at large scale, through the prequantization circle) reduces to arithmetic:

  * integerK      -- an integer K with A2 < K < A1 separates the scales;
  * primeFraction -- an odd prime k and 0 < l < k with l*A2 <= k < l*A1:
                     the degree-2nl limit bar [0, l*A1) of the big ball
                     survives at threshold a = k while the small ball's bar
                     [0, l*A2) has already died, so a squeezing would factor
                     an isomorphism through zero;
  * equalRadii    -- A1 = A2 >= 1 obstructs exact equality;
  * conjugated    -- for sub-unit scales, conjugating by the m-fold room
                     twist rescales A to A/(1 - mA) and reduces to the
                     cases above (needs the target room bound A3).

Each rule is written once in `gfs.squeeze`: `find_obstruction` scans the
kinds in priority order, `validate_certificate` replays the same rules on
the certificate's integers, and `evidence` reads the limit barcodes at the
certificate's own areas to reproduce the contradiction as barcode ranks.
"""
import sys

from gfs import (Ambient, SqueezeQuery, certificate_json, evidence,
                 find_obstruction, validate_certificate)

QUERIES = [
    dict(A1=2.5, A2=1.7),
    dict(A1=1.5, A2=1.2),
    dict(A1=1.01, A2=1.0),
    dict(A1=0.45, A2=0.40, A3=0.5),
    dict(A1=0.45, A2=0.40),            # no room bound: expect no certificate
]

for kw in QUERIES:
    q = SqueezeQuery(**kw)
    cert = find_obstruction(q)
    label = ", ".join("%s=%s" % (k, v) for k, v in kw.items())
    if not cert.found():
        print("(%s): no obstruction found -- squeezing is not excluded\n"
              % label)
        continue
    ok = validate_certificate(cert, kw["A1"], kw["A2"])
    print("(%s): %s certificate, sound: %s" % (label, cert.kind, ok))
    report = evidence(cert, Ambient(n=1, R=1.0))
    print("  evidence: degree %d at a = %g, ranks %s, inclusion %s"
          % (report["degree"], report["a"], report["ranks"],
             report["inclusion_ranks"]))
    if kw.get("A1") == 1.5:
        print("\nfull certificate JSON for the (1.5, 1.2) query:")
        sys.stdout.write(certificate_json(cert, report))
    print()
