"""``ckks_ops``: three functional CKKS operations, run in process.

* ``infer`` — :meth:`repro.serve.live.LiveWorkerPool.infer`, the exact
  kernel live serving runs: encrypt, BSGS dense, degree-2 polynomial
  activation, BSGS dense, decrypt at N=128 (~18.8k NTT calls).
* ``bootstrap`` — :meth:`repro.ckks.Bootstrapper.bootstrap` with the
  ``repro perf`` suite's N=128 sparse-secret parameters (~77.9k NTT
  calls, each on a short polynomial: call overhead dominates).
* ``keyswitch`` — encrypt two vectors, relinearizing multiply, rescale,
  rotate by one slot and decrypt at N=2^13 (486 NTT calls, each on a
  long polynomial: arithmetic dominates).

Inputs come from the workload seed.  Correctness: each decrypted result
is compared with a plaintext reference the benchmark computes itself,
against the error bounds in ``references.json``.
"""

from __future__ import annotations

import numpy as np

#: The live worker's model (``repro.serve.live``): 64 slots, two dense
#: layers with weights 0.3 * N(0, 1) drawn from ``default_rng(7)``, and
#: the activation 0.5 h + 0.25 h^2 between them.
LIVE_SLOTS = 64
LIVE_MODEL_SEED = 7


def live_reference(values):
    """Plaintext output of the live worker's model for one input vector."""
    rng = np.random.default_rng(LIVE_MODEL_SEED)
    w1 = 0.3 * rng.normal(size=(LIVE_SLOTS, LIVE_SLOTS))
    w2 = 0.3 * rng.normal(size=(LIVE_SLOTS, LIVE_SLOTS))
    x = np.zeros(LIVE_SLOTS)
    x[: len(values)] = values
    h = w1 @ x
    return w2 @ (0.5 * h + 0.25 * h ** 2)


def random_vector(rng, size, scale):
    return np.array([rng.uniform(-scale, scale) for _ in range(size)])


COMMON = (
    ("math.ntt_calls", "count"),
    ("math.ntt_pct", "%"),
    ("poly.rns_multiply_pct", "%"),
    ("ckks.evaluator_ops", "count"),
    ("ckks.keyswitch_calls", "count"),
    ("ckks.keyswitch_pct", "%"),
    ("ckks.encrypt_pct", "%"),
    ("ckks.decrypt_pct", "%"),
    ("max_error", "abs"),
)
EXTRA = {
    "infer": (("ckks.linear_apply_pct", "%"), ("ckks.polyeval_pct", "%")),
    "bootstrap": tuple((f"ckks.{stage}_pct", "%") for stage in (
        "mod_raise", "coeff_to_slot", "eval_exp_sin", "slot_to_coeff")),
    "keyswitch": (),
}
_SPANS = {
    "math.ntt_pct": "math.ntt",
    "poly.rns_multiply_pct": "poly.rns_multiply",
    "ckks.keyswitch_pct": "ckks.keyswitch",
    "ckks.encrypt_pct": "ckks.encrypt",
    "ckks.decrypt_pct": "ckks.decrypt",
    "ckks.linear_apply_pct": "ckks.linear_apply",
    "ckks.polyeval_pct": "ckks.polyeval",
    "ckks.mod_raise_pct": "ckks.mod_raise",
    "ckks.coeff_to_slot_pct": "ckks.coeff_to_slot",
    "ckks.eval_exp_sin_pct": "ckks.eval_exp_sin",
    "ckks.slot_to_coeff_pct": "ckks.slot_to_coeff",
}


def layer_catalogue():
    return [(f"{part}.{name}", unit)
            for part in EXTRA for name, unit in COMMON + EXTRA[part]]


class Workload:
    name = "ckks_ops"
    parts = tuple(EXTRA)

    def __init__(self, references):
        self.bounds = references["ckks_ops"]["max_error"]
        self.errors = {part: 0.0 for part in self.parts}
        self.begin_pass()

    def begin_pass(self):
        self.counters = {}

    def setup(self):
        from repro.ckks import (
            BootstrapKeys,
            Bootstrapper,
            CkksContext,
            CkksParameters,
            Decryptor,
            Encryptor,
            Evaluator,
            KeyGenerator,
            toy_parameters,
        )
        from repro.serve.live import LiveWorkerPool

        self.pool = LiveWorkerPool(size=1)
        self.pool.warm()

        params = CkksParameters(
            poly_degree=128, first_modulus_bits=29, scale_bits=25,
            num_scale_moduli=18, special_modulus_bits=30,
            num_special_moduli=2, secret_hamming_weight=4)
        context = CkksContext(params)
        keygen = KeyGenerator(context, seed=11)
        evaluator = Evaluator(context)
        self.boot = Bootstrapper(context, evaluator, taylor_degree=7,
                                 daf_iterations=6)
        self.boot_keys = BootstrapKeys(
            relin_key=keygen.create_relin_key(),
            galois_keys=keygen.create_galois_keys(
                self.boot.required_galois_elements()))
        self.boot_evaluator = evaluator
        self.boot_encryptor = Encryptor(context, keygen.create_public_key(),
                                        seed=12)
        self.boot_decryptor = Decryptor(context, keygen.secret_key)
        self.boot_slots = params.slot_count

        params = toy_parameters(poly_degree=1 << 13, num_scale_moduli=4)
        context = CkksContext(params)
        keygen = KeyGenerator(context, seed=13)
        self.ks_evaluator = Evaluator(context)
        self.ks_relin = keygen.create_relin_key()
        self.ks_galois = keygen.create_galois_keys(
            [context.galois_element_for_step(1)])
        self.ks_encryptor = Encryptor(context, keygen.create_public_key(),
                                      seed=14)
        self.ks_decryptor = Decryptor(context, keygen.secret_key)
        self.ks_slots = params.slot_count

    def patch(self, tracer):
        import repro.ckks
        import repro.ckks.bootstrap
        import repro.ckks.polyeval
        from repro.ckks import (
            Bootstrapper,
            Decryptor,
            Encryptor,
            Evaluator,
            LinearTransform,
        )
        from repro.math.ntt import NttContext
        from repro.poly.polynomial import RnsPoly
        from repro.poly.rns import RnsContext

        for method in ("forward", "inverse", "negacyclic_multiply"):
            tracer.patch(NttContext, method, "math.ntt")
        for method in ("negacyclic_multiply", "ntt_forward", "ntt_inverse"):
            tracer.patch(RnsContext, method, "math.ntt")
        tracer.patch(RnsPoly, "multiply", "poly.rns_multiply")
        tracer.patch(Evaluator, "_key_switch", "ckks.keyswitch")
        tracer.patch(Encryptor, "encrypt_values", "ckks.encrypt")
        tracer.patch(Decryptor, "decrypt_values", "ckks.decrypt")
        tracer.patch(LinearTransform, "apply", "ckks.linear_apply")
        for module in (repro.ckks, repro.ckks.polyeval, repro.ckks.bootstrap):
            if hasattr(module, "evaluate_polynomial"):
                tracer.patch(module, "evaluate_polynomial", "ckks.polyeval")
        for stage in ("mod_raise", "coeff_to_slot", "eval_exp_sin",
                      "slot_to_coeff"):
            tracer.patch(Bootstrapper, stage, f"ckks.{stage}")

    def run_op(self, part, rng, clock, first):
        from repro.obs.metrics import MetricsRegistry, counter_totals, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            error = getattr(self, f"_{part}")(rng, clock)
        self.counters[part] = counter_totals(registry.snapshot())
        self.errors[part] = max(self.errors[part], error)
        bound = self.bounds[part]
        if not error <= bound:
            return False, f"{part}: max error {error:.3g} exceeds {bound:g}"
        return True, None

    def _infer(self, rng, clock):
        values = random_vector(rng, LIVE_SLOTS, 1.0)
        with clock.measure("infer"):
            result = self.pool.infer(list(values))
        want = live_reference(values)
        got = np.array(result["outputs"])
        # ``outputs`` carries the first 8 slots rounded to 6 digits; the
        # worker's own ``max_error`` covers all 64 against its reference.
        return max(float(np.max(np.abs(got - want[: got.size]))),
                   float(result["max_error"]))

    def _bootstrap(self, rng, clock):
        values = random_vector(rng, self.boot_slots, 0.5)
        ct = self.boot_evaluator.drop_to_level(
            self.boot_encryptor.encrypt_values(values), 0)
        with clock.measure("bootstrap"):
            out = self.boot.bootstrap(ct, self.boot_keys)
        got = self.boot_decryptor.decrypt_values(out).real
        return float(np.max(np.abs(got - values)))

    def _keyswitch(self, rng, clock):
        a = random_vector(rng, self.ks_slots, 1.0)
        b = random_vector(rng, self.ks_slots, 1.0)
        ev = self.ks_evaluator
        with clock.measure("keyswitch"):
            ca = self.ks_encryptor.encrypt_values(a)
            cb = self.ks_encryptor.encrypt_values(b)
            product = ev.rescale(ev.multiply(ca, cb, self.ks_relin))
            rotated = ev.rotate(product, 1, self.ks_galois)
            got = self.ks_decryptor.decrypt_values(rotated).real
        return float(np.max(np.abs(got - np.roll(a * b, -1))))

    def info_lines(self):
        return [f"max error {part}: {self.errors[part]:.3g} "
                f"(bound {self.bounds[part]:g})" for part in self.parts]

    def layer_metrics(self, tracer):
        out = {}
        for part in self.parts:
            ops, op_total, _ = tracer.get(part, "op")
            counts = self.counters.get(part, {})
            out[f"{part}.math.ntt_calls"] = counts.get("math.ntt.calls", 0)
            out[f"{part}.ckks.evaluator_ops"] = counts.get(
                "ckks.evaluator.ops", 0)
            out[f"{part}.ckks.keyswitch_calls"] = (
                tracer.get(part, "ckks.keyswitch")[0] / max(ops, 1))
            out[f"{part}.max_error"] = self.errors[part]
            for name, _unit in COMMON + EXTRA[part]:
                if name in _SPANS:
                    out[f"{part}.{name}"] = (
                        100.0 * tracer.get(part, _SPANS[name])[1] / op_total)
        return out
