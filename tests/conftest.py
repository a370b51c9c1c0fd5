"""Shared fixtures: circulated signature blocks and small databases."""

import pytest
from hypothesis import settings

# no per-example deadline: timing noise of up to 1.8x on a shared machine
# (bench/README.md, "Noise") would make one flaky
settings.register_profile("neuralfp", deadline=None)
settings.load_profile("neuralfp")

# Linux 2.6.0-test5 block as printed in circulated copies of the first-gen
# database: test lines truncated after the first field, no closing parens.
LINUX_260_BLOCK = """\
# Linux 2.6.0-test5 x86
Fingerprint Linux 2.6.0-test5 x86
Class Linux | Linux | 2.6.X | general purpose
TSeq(Class=RI
T1(DF=Y
T2(Resp=Y
T3(Resp=Y
T4(DF=Y
T5(DF=Y
T6(DF=Y
T7(DF=Y
PU(DF=N
"""

# The same machine's full T3 line from the original database.
LINUX_260_T3 = "T3(Resp=Y%DF=Y%W=16A0%ACK=S++%Flags=AS%Ops=MNNTNW)"

OPENBSD_36_BLOCK = """\
Fingerprint OpenBSD 3.6 (i386)
Class OpenBSD | OpenBSD | 3.X | general purpose
T1(DF=N % W=4000 % ACK=S++ % Flags=AS % Ops=MNWNNT)
T2(Resp=N)
T3(Resp=N)
T4(DF=N % W=0 % ACK=O %Flags=R % Ops=)
T5(DF=N % W=0 % ACK=S++ % Flags=AR % Ops=)
"""

OPENBSD_22_BLOCK = """\
Fingerprint OpenBSD 2.2 - 2.3
Class OpenBSD | OpenBSD | 2.X | general purpose
T1(DF=N % W=402E % ACK=S++ % Flags=AS % Ops=MNWNNT)
T2(Resp=N)
T3(Resp=Y % DF=N % W=402E % ACK=S++ % Flags=AS % Ops=MNWNNT)
T4(DF=N % W=4000 % ACK=O % Flags=R % Ops=)
T5(DF=N % W=0 % ACK=S++ % Flags=AR % Ops=)
"""

# Endpoint mapper dump as circulated: a messenger service with four
# bindings plus two two-binding programs, eight bindings in all.
MESSENGER_DUMP = """\
# endpoint mapper dump
uuid 5A7B91F8-FF00-11D0-A9B2-00C04FB6E6FC
annotation Messenger Service
  binding ncalrpc ntsvcs
  binding ncacn_np \\PIPE\\ntsvcs
  binding ncacn_np \\PIPE\\scerpc
  binding ncadg_ip_udp

uuid 1FF70682-0A51-30E8-076D-740BE8CEE98B
  binding ncalrpc LRPC
  binding ncacn_ip_tcp 1025

uuid 378E52B0-C0A9-11CF-822D-00AA0051E40F
  binding ncalrpc LRPC
  binding ncacn_ip_tcp 1025
"""


@pytest.fixture
def openbsd_pair():
    from neuralfp.signatures import parse_fingerprint_db

    return parse_fingerprint_db(OPENBSD_36_BLOCK + "\n" + OPENBSD_22_BLOCK)
