"""Ternary morphisms that preserve words with Sturmian erasures.

Membership reduces to three two-letter decisions: erase the dead letter
from the images, restrict the domain, and ask the monoid.  The psi family
gives infinitely many members that primality calls prime-certified, a rule
that some members meet although they factor; a worked composite shows the
other side of the certificate.
"""

from sturmian_erasures import (
    apply,
    compose,
    erase,
    fibonacci_stream,
    format_morphism,
    intercalate,
    mse_membership,
    parse_morphism,
    primality,
    psi,
    wse_verdict,
)

g = parse_morphism("0=01,1=02,2=")
h = parse_morphism("0=02,1=10,2=")
f = parse_morphism("0=0,1=1,2=012")

for name, m in (("g", g), ("h", h), ("f", f), ("f.g", compose(f, g)), ("f.h", compose(f, h))):
    verdict = mse_membership(m)
    print(f"{name} = {format_morphism(m)}: {verdict.kind}"
          + (f" ({verdict.reason})" if verdict.kind == "rejected" else ""))

# The rejected composition maps the Fibonacci word outside the class.
F = fibonacci_stream().prefix(3000)
w = apply(compose(f, h), F)
print("f.h image starts:", w[:20], "->", wse_verdict(w, 10).witness)

# Primes and a composite.
for n in (1, 2, 3):
    family = psi(n)
    print(f"psi_{n} = {format_morphism(family.psi)}: {primality(family.psi).kind}")
split = primality(parse_morphism("0=0102,1=01,2="))
print("0=0102,1=01,2=:", split.kind,
      "g =", format_morphism(split.g_factor), " h =", format_morphism(split.h_factor))

# Any ternary word is recoverable from its three erasures.
word = apply(psi(2).psi, F)[:40]
rebuilt = intercalate(erase(word, "2"), erase(word, "1"), erase(word, "0"))
print("intercalation round-trip:", rebuilt == word)
