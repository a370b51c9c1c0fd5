"""Hosts to run the per-host path on, shared by the tests and
demos/08_host_path.py: the bench scan workload's sampled hosts and hosts
whose every value varies. Imports neither pytest nor hypothesis."""


def scan_hosts(db, n, seed=1):
    """The first n hosts the bench scan workload draws for seed
    (bench/pipeline.make_inputs), parsed from their printed forms as a scan
    reads them: (Observation, EndpointMap or None) pairs."""
    import numpy as np

    from neuralfp import datagen, dcerpc, signatures

    rng = np.random.default_rng((seed, 1))
    dumps = dcerpc.synthetic_windows_corpus(seed=seed)
    hosts = []
    for _ in range(n):
        sig = db[int(rng.integers(len(db)))]
        obs = signatures.format_observation(datagen.sample_observation(sig, rng))
        dump = None
        # half the Windows hosts carry an endpoint dump
        if datagen.signature_family(sig) == "Windows" and rng.random() < 0.5:
            emap, _ = dumps[int(rng.integers(len(dumps)))]
            dump = dcerpc.parse_endpoint_dump(dcerpc.format_endpoint_dump(emap))
        hosts.append((signatures.parse_observation(obs), dump))
    return hosts


# letters the encoder does not know, to mix into Flags and Ops values
_ODD_LETTERS = "XQZ"
_ODD_CHOICES = {"ACK": ("Z", "S+"), "Class": ("WEIRD", "td"), "IPID": ("QQ",), "TS": ("7HZ", "u")}


def varied_observations(n, seed=0):
    """n observations whose values vary as a scan's can: every numeric field
    from 0 to its bound in both hex cases, Flags and Ops strings over every
    letter plus unknown ones (empty, and Ops past ten groups), and unknown
    ACK, Class, IPID and TS values. A test or field may be missing, and an
    unknown test or field may appear; every value encodes without error."""
    import numpy as np

    from neuralfp.encoding import FIELDS
    from neuralfp.signatures import Observation

    rng = np.random.default_rng((seed, 30))
    by_test = {}
    for f in FIELDS:
        if f.kind != "pad":
            by_test.setdefault(f.test, []).append(f)
    by_test["T9"] = by_test["T1"]  # an unknown test with known field names

    def letters(f, longest):
        # one value in five may hold a letter the encoder does not know
        pool = list(f.slot) + list(_ODD_LETTERS if rng.random() < 0.2 else "")
        return "".join(rng.choice(pool, size=int(rng.integers(0, longest + 1))))

    def value(f):
        if f.kind == "num":
            v = int(rng.choice([0, f.bound, int(rng.integers(0, f.bound + 1))], p=[0.1, 0.1, 0.8]))
            return f"{v:X}" if rng.random() < 0.5 else f"{v:x}"
        if f.kind in ("yn", "resp", "unslotted"):
            return str(rng.choice(["Y", "N"]))
        if f.kind == "flags":
            return "" if rng.random() < 0.3 else letters(f, 8)
        if f.kind == "ops":
            return "" if rng.random() < 0.4 else letters(f, 13)
        return str(rng.choice(list(f.slot) + list(_ODD_CHOICES.get(f.name, ()))))

    hosts = []
    for _ in range(n):
        tests = {}
        for tid, fields in by_test.items():
            if rng.random() < (0.05 if tid == "T9" else 0.8):
                tests[tid] = {f.name: value(f) for f in fields if rng.random() < 0.85}
                if rng.random() < 0.05:
                    tests[tid]["Quirk"] = "1"
        hosts.append(Observation(None, tests))
    return hosts
