"""Generating-function machinery for contact non-squeezing certificates.

Layers (bottom to top):

* `sympl`   -- ambient conventions, radial profiles and their truncated flows,
               contact lifts, translated chains.
* `genfun`  -- generating functions quadratic at infinity: small maps, cyclic
               compositions, k-fold sharps, contact sharps and the conformally
               corrected composition P.
* `crit`    -- critical-point solving and classification, orbit
               reconstruction, Maslov normalization, translated-chain scans.
* `equivar` -- exact homological algebra over Z_k[T]/(T^k - 1) =
               F_k[x]/(x^k), entries stored as valuations: lens/ball
               complexes, closed-form persistence barcodes (finite-stage
               and limit), stabilization.
* `squeeze` -- non-squeezing certificate search, evidence and inclusion ranks.
* `cli`     -- `gfs` command line driver (barcode / verify / nonsqueeze).
"""

from .errors import (AngleOutOfRange, DomainError, EvenK, GfsError,
                     NoConvergence, NonMonotoneProfile, NonPrimeK,
                     NotFibreCritical, NotNormalized, OrbitRelationViolated,
                     SearchBoundExceeded)
from .sympl import (Ambient, ContactLift, ContactPoint, LinearRotation,
                    RadialMap, RadialProfile, ShellDatum, TranslatedChain,
                    flow, ref_profile, shells, translated_chains,
                    verify_chain)
from .genfun import (GenFn, GraphPoint, contact_lift_gf, contact_p,
                     contact_sharp, gf_compose_chain, gf_linear_rotation,
                     gf_small_map, gf_time_one, graph_of, reeb_shift, sharp_k,
                     fibre_critical_config, alternating_resolve)
from .crit import (CriticalManifold, chain_scan, maslov, newton_critical,
                   reconstruct, seed_from_chain, sharp_critical_seed, to_csv)
from .equivar import (Bar, Barcode, Generator, GroupRingComplex,
                      ball_complex, barcode, is_prime, lens_complex,
                      limit_barcode, rank_mod_p, tensor_circle, thom_shift)
from .squeeze import (SqueezeCertificate, SqueezeQuery, certificate_json,
                      evidence, find_obstruction, room_obstruction,
                      room_transform, validate_certificate)

__version__ = "0.1.0"
