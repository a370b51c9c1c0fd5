"""Built-in synthetic signature databases for demos and tests.

Real first-generation fingerprint databases are not redistributable, so
the demos and the acceptance gate run on synthetic ones.  The shapes are
modeled on real stack behavior (sequence class, IPID policy, timestamp
rate, option strings, window sizes) but every value here is invented.
"""

from __future__ import annotations

import numpy as np

from .datagen import sample_observation
from .encoding import TCP_TESTS
from .signatures import Observation, Signature, parse_fingerprint_db


# the one-rule signature used to demonstrate the best-fit pathology
SPARSE_IMPOSTOR = "RetroBox Game Console"
# the dense signature the pathology observation is actually drawn from
PATHOLOGY_TARGET = "Linux Kernel 2.6.8"


def _sig(name: str, cls: str, *tests: str) -> str:
    return "\n".join([f"Fingerprint {name}", f"Class {cls}", *tests])


# the two T2 answers a Windows row can give
_T2_SILENT = "T2(Resp=N)"
_T2_RESET = "T2(Resp=Y%DF=Y%W=0%ACK=S%Flags=AR%Ops=)"

# one entry per relevant family: vendor, family, name prefix, the row's
# column names (every row starts with its version and version line), a
# template of nine test lines whose {fields} name those columns, and the rows
_FAMILIES = (
    (
        "Microsoft", "Windows", "Microsoft Windows ", ("ver", "line", "cls", "si", "ts", "w", "ops", "t2"),
        "TSeq(Class={cls}%gcd=1%SI={si}%IPID=BI%TS={ts})\n"
        "T1(Resp=Y%DF=Y%W={w}%ACK=S++%Flags=AS%Ops={ops})\n"
        "{t2}\n"
        "T3(Resp=Y%DF=Y%W={w}%ACK=S++%Flags=AS%Ops={ops})\n"
        "T4(Resp=Y%DF=N%W=0%ACK=O%Flags=R%Ops=)\n"
        "T5(Resp=Y%DF=N%W=0%ACK=S++%Flags=AR%Ops=)\n"
        "T6(Resp=Y%DF=N%W=0%ACK=O%Flags=R%Ops=)\n"
        "T7(Resp=Y%DF=N%W=0%ACK=S++%Flags=AR%Ops=)\n"
        "PU(Resp=Y%DF=N%TOS=0%IPLEN=38%RIPTL=148%RID=E%RIPCK=E%UCK=E%ULEN=134%DAT=E)",
        [
            ("NT4 Workstation SP6a", "NT4", "TD", "<28", "U", "2017", "M", _T2_SILENT),
            ("NT4 Server SP3", "NT4", "TD", "<32", "U", "2180|2017", "M", _T2_SILENT),
            ("NT4 Server Enterprise SP6", "NT4", "TD", "<3C", "U", "2017", "M", _T2_SILENT),
            ("2000 Professional SP2", "2000", "RI", "<1F4", "0", "402E", "MNWNNT", _T2_RESET),
            ("2000 Server SP0", "2000", "RI", "<190", "0", "402E|416A", "MNWNNT", _T2_RESET),
            ("2000 Advanced Server SP4", "2000", "RI", "<258", "0", "416A", "MNWNNT", _T2_RESET),
            ("XP Professional SP1", "XP", "RI", "<2BC", "0", "FAF0|402E", "MNWNNT", _T2_RESET),
            ("XP Home SP2", "XP", "RI", "<2BC", "0", "FAF0", "MNWNNT", _T2_RESET),
            ("XP Professional SP2", "XP", "RI", "<320", "0", "FAF0|FFFF", "MNWNNT", _T2_RESET),
            ("2003 Standard Edition", "2003", "RI", "<384", "0", "402E", "MNWNNT", _T2_RESET),
            ("2003 Enterprise Edition", "2003", "RI", "<3E8", "0", "402E|FFFF", "MNWNNT", _T2_RESET),
            ("2003 Web Edition", "2003", "RI", "<384", "0", "402E", "MNWNNT", _T2_RESET),
        ],
    ),
    (
        "Linux", "Linux", "Linux Kernel ", ("ver", "line", "si", "ipid", "ts", "w", "ops"),
        "TSeq(Class=RI%gcd=1%SI={si}%IPID={ipid}%TS={ts})\n"
        "T1(Resp=Y%DF=Y%W={w}%ACK=S++%Flags=AS%Ops={ops})\n"
        "T2(Resp=N)\n"
        "T3(Resp=Y%DF=Y%W={w}%ACK=S++%Flags=AS%Ops={ops})\n"
        "T4(Resp=Y%DF=Y%W=0%ACK=O%Flags=R%Ops=)\n"
        "T5(Resp=Y%DF=Y%W=0%ACK=S++%Flags=AR%Ops=)\n"
        "T6(Resp=Y%DF=Y%W=0%ACK=O%Flags=R%Ops=)\n"
        "T7(Resp=N)\n"
        "PU(Resp=Y%DF=N%TOS=C0%IPLEN=164%RIPTL=148%RID=E%RIPCK=E%UCK=E%ULEN=134%DAT=E)",
        [
            ("2.0.34", "2.0.X", ">C8&<2710", "I", "U", "3F25", "M"),
            ("2.0.36", "2.0.X", ">C8&<2710", "I", "U", "3F25|3FD0", "M"),
            ("2.0.39", "2.0.X", ">FA&<2EE0", "I", "U", "3FD0", "M"),
            ("2.2.14", "2.2.X", ">3E8&<C350", "I", "100HZ", "7F53", "MENNTNW"),
            ("2.2.19", "2.2.X", ">3E8&<C350", "I", "100HZ", "7F53|7FB8", "MENNTNW"),
            ("2.2.25", "2.2.X", ">7D0&<EA60", "I", "100HZ", "7FB8", "MENNTNW"),
            ("2.4.7", "2.4.X", ">30D40&<F4240", "Z", "100HZ", "5B4|7FFF", "MNNTNW"),
            ("2.4.20", "2.4.X", ">30D40&<F4240", "Z", "100HZ", "7FFF", "MNNTNW"),
            ("2.4.28", "2.4.X", ">493E0&<F4240", "Z", "100HZ", "5B4", "MNNTNW"),
            ("2.6.0", "2.6.X", ">30D40&<F4240", "Z", "1000HZ", "16A0|7FFF", "MNNTNW"),
            ("2.6.8", "2.6.X", ">30D40&<F4240", "Z", "1000HZ", "16A0", "MNNTNW"),
            ("2.6.11", "2.6.X", ">493E0&<F4240", "Z", "1000HZ", "16A0|7FFF", "MNNTNW"),
        ],
    ),
    (
        "Sun", "Solaris", "Sun Solaris ", ("ver", "line", "w", "ops", "riptl"),
        "TSeq(Class=RI%gcd=1%SI=>FA&<7D0%IPID=I%TS=100HZ)\n"
        "T1(Resp=Y%DF=Y%W={w}%ACK=S++%Flags=AS%Ops={ops})\n"
        "T2(Resp=N)\n"
        "T3(Resp=N)\n"
        "T4(Resp=Y%DF=Y%W=0%ACK=S%Flags=AR%Ops=)\n"
        "T5(Resp=Y%DF=Y%W=0%ACK=S%Flags=AR%Ops=)\n"
        "T6(Resp=Y%DF=Y%W=0%ACK=S%Flags=AR%Ops=)\n"
        "T7(Resp=Y%DF=Y%W=0%ACK=S%Flags=AR%Ops=)\n"
        "PU(Resp=Y%DF=Y%TOS=0%IPLEN=70%RIPTL={riptl}%RID=E%RIPCK=E%UCK=E%ULEN=134%DAT=E)",
        [
            ("2.6", "2.6", "60DA", "M", "70"),
            ("2.6 sparc", "2.6", "60DA|6028", "M", "70"),
            ("7", "7", "832C|60DA", "NNTM", "70"),
            ("7 x86", "7", "832C", "NNTM", "70"),
            ("8", "8", "832C", "NNTM", "88"),
            ("8 sparc", "8", "832C|C0B7", "NNTM", "88"),
            ("9", "9", "C0B7", "NNTM", "88"),
            ("9 sparc", "9", "C0B7|CB68", "NNTM", "88"),
            ("10", "10", "C0B7|FFFF", "MNWNNT", "A0"),
            ("10 x86", "10", "FFFF", "MNWNNT", "A0"),
        ],
    ),
    (
        "OpenBSD", "OpenBSD", "OpenBSD ", ("ver", "line", "w", "uck"),
        "TSeq(Class=TR%gcd=1%SI=>30D40%IPID=RD%TS=2HZ)\n"
        "T1(Resp=Y%DF=N%W={w}%ACK=S++%Flags=AS%Ops=MNWNNT)\n"
        "T2(Resp=N)\n"
        "T3(Resp=Y%DF=N%W={w}%ACK=S++%Flags=AS%Ops=MNWNNT)\n"
        "T4(Resp=Y%DF=N%W=0%ACK=O%Flags=R%Ops=)\n"
        "T5(Resp=Y%DF=N%W=0%ACK=S++%Flags=AR%Ops=)\n"
        "T6(Resp=Y%DF=N%W=0%ACK=O%Flags=R%Ops=)\n"
        "T7(Resp=Y%DF=N%W=0%ACK=S%Flags=AR%Ops=)\n"
        "PU(Resp=Y%DF=N%TOS=0%IPLEN=38%RIPTL=148%RID=E%RIPCK=F%UCK={uck}%ULEN=134%DAT=E)",
        [
            ("2.6", "2.X", "4000", "F"),
            ("2.9", "2.X", "4000|403D", "F"),
            ("2.9 sparc", "2.X", "403D", "F"),
            ("3.0", "3.0-3.3", "402E", "E"),
            ("3.2", "3.0-3.3", "402E|4000", "E"),
            ("3.3", "3.0-3.3", "402E", "E"),
            ("3.4", "3.4-3.6", "FFFF|402E", "E"),
            ("3.5", "3.4-3.6", "FFFF", "E"),
            ("3.6", "3.4-3.6", "FFFF|8000", "E"),
        ],
    ),
    (
        "FreeBSD", "FreeBSD", "FreeBSD ", ("ver", "line", "w", "t7flags"),
        "TSeq(Class=RI%gcd=1%SI=>FA&<7530%IPID=I%TS=100HZ)\n"
        "T1(Resp=Y%DF=Y%W={w}%ACK=S++%Flags=AS%Ops=MNWNNT)\n"
        "T2(Resp=Y%DF=Y%W=0%ACK=S%Flags=AR%Ops=)\n"
        "T3(Resp=Y%DF=Y%W={w}%ACK=S++%Flags=AS%Ops=MNWNNT)\n"
        "T4(Resp=Y%DF=Y%W=0%ACK=O%Flags=R%Ops=)\n"
        "T5(Resp=Y%DF=Y%W=0%ACK=S++%Flags=AR%Ops=)\n"
        "T6(Resp=Y%DF=Y%W=0%ACK=O%Flags=R%Ops=)\n"
        "T7(Resp=Y%DF=Y%W=0%ACK=S%Flags={t7flags}%Ops=)\n"
        "PU(Resp=Y%DF=Y%TOS=0%IPLEN=38%RIPTL=148%RID=E%RIPCK=E%UCK=E%ULEN=148%DAT=E)",
        [
            ("4.5", "4.X", "E000", "AR"),
            ("4.8", "4.X", "E000|E420", "AR"),
            ("5.1", "5.X", "FFFF", "R"),
            ("5.2", "5.X", "FFFF|E000", "R"),
        ],
    ),
    (
        "NetBSD", "NetBSD", "NetBSD ", ("ver", "line", "w", "ts"),
        "TSeq(Class=RI%gcd=1|2%SI=>64&<1388%IPID=I%TS={ts})\n"
        "T1(Resp=Y%DF=N%W={w}%ACK=S++%Flags=AS%Ops=MNWNNT)\n"
        "T2(Resp=N)\n"
        "T3(Resp=Y%DF=N%W={w}%ACK=S++%Flags=AS%Ops=MNWNNT)\n"
        "T4(Resp=Y%DF=N%W=0%ACK=S%Flags=R%Ops=)\n"
        "T5(Resp=Y%DF=N%W=0%ACK=S++%Flags=AR%Ops=)\n"
        "T6(Resp=Y%DF=N%W=0%ACK=S%Flags=R%Ops=)\n"
        "T7(Resp=N)\n"
        "PU(Resp=Y%DF=N%TOS=0%IPLEN=38%RIPTL=38%RID=E%RIPCK=E%UCK=E%ULEN=134%DAT=F)",
        [
            ("1.5.2", "1.5.X", "4000", "2HZ"),
            ("1.5.3", "1.5.X", "4000|4470", "2HZ"),
            ("1.6.1", "1.6.X", "8000", "100HZ"),
            ("1.6.2", "1.6.X", "8000|7FFF", "100HZ"),
        ],
    ),
)


def _family(vendor, family, prefix, columns, template, rows) -> list[str]:
    """One signature per row: the test-line template filled from the row's named columns."""
    fields = [dict(zip(columns, row, strict=True)) for row in rows]
    return [_sig(f"{prefix}{f['ver']}", f"{vendor} | {family} | {f['line']} | general purpose",
                 template.format(**f)) for f in fields]


# devices the relevance stage must learn to reject, as database text; the
# last is deliberately sparse: one rule, so any host that answers the first
# probe at all matches it perfectly
_IRRELEVANT = f"""\
Fingerprint Cisco IOS 11.2
Class Cisco | IOS | 11.X | router
TSeq(Class=64K%IPID=C%TS=U)
T1(Resp=Y%DF=N%W=1020%ACK=S++%Flags=AS%Ops=M)
T2(Resp=N)
T3(Resp=N)
T4(Resp=Y%DF=N%W=0%ACK=S%Flags=AR%Ops=)
T5(Resp=Y%DF=N%W=0%ACK=S++%Flags=AR%Ops=)
PU(Resp=Y%DF=N%TOS=C0%IPLEN=38%RIPTL=148%RID=E%RIPCK=E%UCK=E%ULEN=134%DAT=E)

Fingerprint Cisco IOS 12.0
Class Cisco | IOS | 12.X | router
TSeq(Class=C%gcd=40%IPID=C%TS=U)
T1(Resp=Y%DF=N%W=81C|1020%ACK=S++%Flags=AS%Ops=M)
T2(Resp=N)
T3(Resp=N)
T4(Resp=Y%DF=N%W=0%ACK=S%Flags=AR%Ops=)
T5(Resp=Y%DF=N%W=0%ACK=S++%Flags=AR%Ops=)
PU(Resp=Y%DF=N%TOS=C0%IPLEN=38%RIPTL=148%RID=E%RIPCK=E%UCK=E%ULEN=134%DAT=E)

Fingerprint HP LaserJet 4050 printer
Class Hewlett-Packard | embedded | JetDirect | printer
TSeq(Class=i800%gcd=1%IPID=I%TS=U)
T1(Resp=Y%DF=N%W=2238%ACK=S++%Flags=AS%Ops=M)
T2(Resp=N)
T3(Resp=N)
T5(Resp=Y%DF=N%W=2238%ACK=S++%Flags=AR%Ops=)
PU(Resp=N)

Fingerprint HP LaserJet 8150 printer
Class Hewlett-Packard | embedded | JetDirect | printer
TSeq(Class=i800%gcd=1%IPID=I%TS=U)
T1(Resp=Y%DF=N%W=2238|2144%ACK=S++%Flags=AS%Ops=M)
T2(Resp=N)
T3(Resp=N)
T5(Resp=Y%DF=N%W=2238%ACK=S++%Flags=AR%Ops=)
PU(Resp=N)

Fingerprint IBM AIX 4.3
Class IBM | AIX | 4.3.X | general purpose
TSeq(Class=RI%gcd=1%SI=<3E8%IPID=I%TS=100HZ)
T1(Resp=Y%DF=Y%W=FFFF%ACK=O%Flags=AS%Ops=MLT)
T2(Resp=N)
T3(Resp=Y%DF=Y%W=FFFF%ACK=O%Flags=AS%Ops=MLT)
T4(Resp=Y%DF=Y%W=0%ACK=O%Flags=R%Ops=)
T5(Resp=Y%DF=Y%W=0%ACK=S++%Flags=AR%Ops=)
PU(Resp=Y%DF=Y%TOS=0%IPLEN=38%RIPTL=148%RID=F%RIPCK=F%UCK=F%ULEN=134%DAT=E)

Fingerprint SGI IRIX 6.5
Class SGI | IRIX | 6.X | general purpose
TSeq(Class=i800%gcd=4%IPID=I%TS=2HZ)
T1(Resp=Y%DF=N%W=EF2A%ACK=S++%Flags=AS%Ops=NNT)
T2(Resp=N)
T3(Resp=Y%DF=N%W=EF2A%ACK=S++%Flags=AS%Ops=NNT)
T4(Resp=Y%DF=N%W=0%ACK=O%Flags=R%Ops=)
T5(Resp=Y%DF=N%W=0%ACK=S++%Flags=AR%Ops=)
PU(Resp=Y%DF=N%TOS=0%IPLEN=38%RIPTL=148%RID=E%RIPCK=E%UCK=0%ULEN=134%DAT=E)

Fingerprint DEC Tru64 UNIX 5.1
Class DEC | Tru64 | 5.X | general purpose
TSeq(Class=TD%gcd=2%SI=<64%IPID=I%TS=U)
T1(Resp=Y%DF=N%W=EF2A|C000%ACK=S++%Flags=AS%Ops=NNTM)
T2(Resp=N)
T3(Resp=Y%DF=N%W=C000%ACK=S++%Flags=AS%Ops=NNTM)
T4(Resp=Y%DF=N%W=0%ACK=S%Flags=AR%Ops=)
T5(Resp=Y%DF=N%W=0%ACK=S%Flags=AR%Ops=)
PU(Resp=Y%DF=N%TOS=0%IPLEN=38%RIPTL=148%RID=E%RIPCK=E%UCK=E%ULEN=134%DAT=E)

Fingerprint Minix 2.0
Class Minix | Minix | 2.X | general purpose
TSeq(Class=64K%IPID=I%TS=U)
T1(Resp=Y%DF=N%W=240%ACK=S++%Flags=AS%Ops=M)
T2(Resp=N)
T3(Resp=Y%DF=N%W=240%ACK=S++%Flags=AS%Ops=M)
T5(Resp=Y%DF=N%W=0%ACK=S++%Flags=AR%Ops=)
PU(Resp=Y%DF=N%TOS=0%IPLEN=38%RIPTL=148%RID=E%RIPCK=E%UCK=E%ULEN=134%DAT=E)

Fingerprint BeOS 5.0
Class Be | BeOS | 5.X | general purpose
TSeq(Class=i800%gcd=1%IPID=BI%TS=U)
T1(Resp=Y%DF=N%W=3E80%ACK=S++%Flags=AS%Ops=MNW)
T2(Resp=N)
T3(Resp=Y%DF=N%W=3E80%ACK=S++%Flags=AS%Ops=MNW)
T4(Resp=Y%DF=N%W=0%ACK=O%Flags=R%Ops=)
T5(Resp=Y%DF=N%W=0%ACK=S++%Flags=AR%Ops=)
PU(Resp=Y%DF=N%TOS=0%IPLEN=38%RIPTL=148%RID=E%RIPCK=F%UCK=F%ULEN=134%DAT=E)

Fingerprint {SPARSE_IMPOSTOR}
Class RetroBox | RetroBox | 1 | game console
T1(Resp=Y)"""


def demo_database() -> str:
    """Sixty-one signatures over the six families plus irrelevant devices."""
    header = (
        "# Synthetic first-generation fingerprint corpus (demo scale).\n"
        "# Six relevant families with version lines, plus assorted devices\n"
        "# that the relevance stage must learn to reject."
    )
    sigs = [s for fam in _FAMILIES for s in _family(*fam)]
    return "\n\n".join([header, *sigs, _IRRELEVANT]) + "\n"


def pathology_observation(seed: int = 0) -> Observation:
    """An observation from the dense pathology target with one field off.

    One rule of the true signature misses (its match score drops just
    below 1) while the one-rule impostor still scores a perfect 1.0.
    """
    db = parse_fingerprint_db(demo_database())
    sig = next(s for s in db if s.name == PATHOLOGY_TARGET)
    obs = sample_observation(sig, np.random.default_rng(seed))
    # the signature demands SI strictly below F4240; landing exactly on
    # the bound misses that one rule without leaving the family's range
    obs.tests["TSeq"]["SI"] = "F4240"
    return obs


# ---------------------------------------------------------------------------
# Column-reduction study corpus


def openbsd_study_database() -> str:
    """One family, twelve versions, engineered variation.

    Every version answers T4 through T7 identically, so those blocks
    carry no information and the whole T5 block must fall out of the
    reduction.  Variation lives in the sequence numbers, the first three
    probes, and the closed-port probe.
    """
    rows = [
        ("2.2", "RI", "I", "N", ">C350&<30D40", "4000", "NNTM"),
        ("2.3", "RI", "I", "N", ">C350&<30D40", "4000|403D", "NNTM"),
        ("2.5", "RI", "I", "Y", ">EA60&<493E0", "403D", "NNTM"),
        ("2.6", "RI", "RD", "Y", ">EA60&<493E0", "403D|402E", "NNTM"),
        ("2.8", "RI", "RD", "Y", ">186A0&<493E0", "402E", "MNWNNT"),
        ("2.9", "TR", "RD", "Y", ">186A0&<7A120", "402E|4000", "MNWNNT"),
        ("3.0", "TR", "RD", "N", ">186A0&<7A120", "402E", "MNWNNT"),
        ("3.1", "TR", "RD", "N", ">30D40&<7A120", "402E|FFFF", "MNWNNT"),
        ("3.2", "TR", "RD", "N", ">30D40&<B71B0", "FFFF", "MNWNNT"),
        ("3.4", "TR", "RD", "N", ">30D40&<B71B0", "FFFF|8000", "MNW"),
        ("3.5", "TR", "RD", "N", ">493E0&<B71B0", "8000", "MNW"),
        ("3.6", "TR", "RD", "N", ">493E0&<F4240", "8000|FFFF", "MNW"),
    ]
    sigs = []
    for ver, cls, ipid, df, si, w, ops in rows:  # T2 answers from 3.0 on, and T6 acks S from 3.2 on
        t2 = "T2(Resp=Y%DF=N%W=0|10%ACK=S%Flags=AR%Ops=)" if ver >= "3.0" else _T2_SILENT
        t6_ack = "S" if ver >= "3.2" else "O"
        sigs.append(_sig(
            f"OpenBSD {ver}",
            f"OpenBSD | OpenBSD | {ver} | general purpose",
            f"TSeq(Class={cls}%gcd=1|2%SI={si}%IPID={ipid}%TS=2HZ|U%VAL=>3E8&<F4240)",
            f"T1(Resp=Y%DF={df}%W={w}%ACK=S++%Flags=AS|APS%Ops=MNWNNT|MNW)",
            t2,
            f"T3(Resp=Y%DF={df}%W={w}%ACK=S++|O%Flags=AS%Ops={ops})",
            "T4(Resp=Y%DF=N%W=0|10|20%ACK=O%Flags=R%Ops=)",
            "T5(Resp=Y%DF=N%W=0%ACK=S++%Flags=AR%Ops=)",
            f"T6(Resp=Y%DF=N%W=0|10%ACK={t6_ack}%Flags=R%Ops=)",
            "T7(Resp=Y%DF=N%W=0|10%ACK=S%Flags=AR|R%Ops=)",
            "PU(Resp=Y%DF=N%TOS=0|8|C0%IPLEN=38|44|70%RIPTL=148|38%RID=E|F"
            "%RIPCK=E|F%UCK=E|F|0%ULEN=134|148%DAT=E|F)",
        ))
    return "\n\n".join(sigs) + "\n"


# ---------------------------------------------------------------------------
# Learning-rate study corpus


def family_task_database(per_family: int = 20, seed: int = 4) -> str:
    """Six families, per_family versions each, for training studies.

    No single field separates the families here: stacks share sequence
    classes, window sizes come from one global pool, and option strings
    overlap.  The boundaries live in conjunctions of weak features, which
    is what makes the training curves worth comparing.
    """
    # class choices, ipid choices, ts choices, df choices, ops choices, iplen
    # (iplen, ipid) jointly pin the family down, so the task is solvable,
    # but neither field does it alone
    profiles = {
        "Windows": ("Microsoft", ["RI", "TD"], ["BI"], ["0", "U"], ["Y"], ["MNWNNT", "M"], "38"),
        "Linux": ("Linux", ["RI"], ["Z", "I"], ["100HZ", "1000HZ"], ["Y"], ["MNNTNW", "MENNTNW"], "164"),
        "Solaris": ("Sun", ["RI"], ["I"], ["100HZ"], ["Y"], ["NNTM", "MNWNNT"], "70"),
        "OpenBSD": ("OpenBSD", ["TR", "RI"], ["RD"], ["2HZ", "U"], ["N"], ["MNWNNT", "MNW"], "38|44"),
        "FreeBSD": ("FreeBSD", ["RI"], ["I"], ["100HZ", "0"], ["Y", "N"], ["MNWNNT"], "44"),
        "NetBSD": ("NetBSD", ["RI"], ["I"], ["2HZ"], ["N"], ["MNWNNT", "NNT"], "88"),
    }
    w_pool = ["16A0", "2017", "402E", "4000", "60DA", "7FFF", "832C", "C000", "E000", "FAF0"]
    si_pool = ["<1F4", ">FA&<7D0", ">3E8&<C350", ">30D40&<F4240", ">64&<1388"]
    riptl_pool = ["148", "38", "70", "88"]
    rng = np.random.default_rng(seed)
    sigs = []
    for family, (vendor, classes, ipids, rates, dfs, opses, iplen) in profiles.items():
        for i in range(per_family):
            pick = lambda xs: xs[int(rng.integers(len(xs)))]
            w = pick(w_pool)
            if rng.random() < 0.5:
                w = f"{w}|{pick(w_pool)}"
            sigs.append(_sig(
                f"{family} build {i}",
                f"{vendor} | {family} | v{i} | general purpose",
                f"TSeq(Class={pick(classes)}%gcd=1|2%SI={pick(si_pool)}"
                f"%IPID={pick(ipids)}%TS={pick(rates)})",
                f"T1(Resp=Y%DF={pick(dfs)}%W={w}%ACK=S++%Flags=AS%Ops={pick(opses)})",
                "T2(Resp=N)",
                f"T3(Resp=Y%DF={pick(dfs)}%W={w}%ACK=S++|O%Flags=AS%Ops={pick(opses)})",
                f"T4(Resp=Y%DF={pick(dfs)}%W=0|10%ACK=O%Flags=R%Ops=)",
                f"T5(Resp=Y%DF={pick(dfs)}%W=0%ACK=S++%Flags=AR|R%Ops=)",
                f"PU(Resp=Y%DF={pick(dfs)}%TOS=0|8|C0%IPLEN={iplen}%RIPTL={pick(riptl_pool)}"
                "%RID=E|F%RIPCK=E|F%UCK=E|F|0%ULEN=134|148%DAT=E|F)",
            ))
    return "\n\n".join(sigs) + "\n"


# ---------------------------------------------------------------------------
# Large parser-stress corpus


def large_database(n_signatures: int = 220, seed: int = 11) -> str:
    """A big machine-written corpus exercising the whole rule grammar.

    Every signature is satisfiable by construction, so Monte Carlo
    samples drawn from it must match it perfectly.
    """
    rng = np.random.default_rng(seed)
    classes = ["TD", "64K", "RI", "TR", "C", "i800"]
    ipids = ["I", "BI", "RPI", "RD", "C", "Z"]
    rates = ["0", "2HZ", "100HZ", "1000HZ", "U"]
    opses = ["M", "MNWNNT", "MNNTNW", "NNTM", "MENNTNW", "NNT", "MNW", ""]
    acks = ["S", "S++", "O"]
    flagses = ["AS", "AR", "R", "APS", "AS|APS"]
    outcomes = ["E", "F", "0"]
    vendors = ["Acme", "Globex", "Initech", "Umbrella", "Tyrell", "Wayland"]

    def pick(xs):
        return xs[int(rng.integers(len(xs)))]

    def hexv(cap):
        return f"{int(rng.integers(0, cap)):X}"

    def w_field(cap=0xFFFF):
        kind = rng.integers(4)
        if kind == 0:
            return hexv(cap)
        if kind == 1:
            return "|".join(hexv(cap) for _ in range(int(rng.integers(2, 4))))
        if kind == 2:
            return f"<{int(rng.integers(2, cap)):X}"
        lo = int(rng.integers(0, cap - 2))
        hi = int(rng.integers(lo + 2, cap + 1))
        return f">{lo:X}&<{hi:X}"

    header = (
        "# Machine-written stress corpus: every constraint form, hex bounds,\n"
        "# alternatives, conjunctions, silent probes, and missing tests."
    )
    sigs = []
    for i in range(n_signatures):
        vendor = pick(vendors)
        tseq = [f"Class={pick(classes)}"]
        if rng.random() < 0.8:
            tseq.append(f"gcd={w_field(0xFF)}")
        if rng.random() < 0.8:
            tseq.append(f"SI={w_field(0xFFFFF)}")
        tseq.append(f"IPID={pick(ipids)}%TS={pick(rates)}")
        tests = [f"TSeq({'%'.join(tseq)})"]
        for tid in TCP_TESTS:
            r = rng.random()
            if r < 0.15:
                continue  # probe never sent
            if r < 0.3:
                tests.append(f"{tid}(Resp=N)")
                continue
            tests.append(f"{tid}(Resp=Y%DF={'Y' if rng.random() < 0.5 else 'N'}%W={w_field()}"
                         f"%ACK={pick(acks)}%Flags={pick(flagses)}%Ops={pick(opses)})")
        if rng.random() < 0.9:
            tests.append(f"PU(Resp=Y%DF={'Y' if rng.random() < 0.5 else 'N'}%TOS={hexv(0xFF)}"
                         f"%IPLEN={w_field(0xFFF)}%RIPTL={w_field(0xFFF)}%RID={pick(outcomes)}"
                         f"%RIPCK={pick(outcomes)}%UCK={pick(outcomes)}%ULEN={w_field(0xFFF)}"
                         f"%DAT={'E' if rng.random() < 0.5 else 'F'})")
        sigs.append(_sig(f"{vendor} OS {i // 10}.{i % 10}",
                         f"{vendor} | {vendor}OS | {i // 10}.X | general purpose", *tests))
    return "\n\n".join([header, *sigs]) + "\n"
