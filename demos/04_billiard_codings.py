"""Code cubic billiard trajectories exactly and classify them.

A half-line t*d + rho in the unit-cube grid crosses integer hyperplanes at
exactly computable times; recording which coordinate crosses gives a word
over 0, 1, 2.  With the golden-mean direction the coding is a morphic image
of the Fibonacci word, letter for letter.
"""

import itertools

from sturmian_erasures import (
    BilliardConfig,
    apply_stream,
    billiard_word,
    classify,
    complexity,
    event_stream,
    fibonacci_stream,
    parse_morphism,
    parse_number,
    rational,
    sqrt,
)

theta = parse_number("(1+sqrt(5))/2")
frac = theta - rational(1)
golden = BilliardConfig(d=(rational(1), frac, frac * frac),
                        rho=(rational(0), frac, frac * frac))

print("first events:")
for event in itertools.islice(event_stream(golden), 5):
    print(f"  t = {str(event.t):24s} faces {event.omega}")

coded = billiard_word(golden).prefix(200)
image = apply_stream(parse_morphism("0=0102,1=01,2="), fibonacci_stream()).prefix(200)
print("coding  :", coded[:48], "...")
print("morphic :", image[:48], "...")
print("match   :", coded == image)

for d in ((1, 1, 0), (0, 1, theta), (1, sqrt(2), sqrt(3)), (1, 1, sqrt(2))):
    config = BilliardConfig(d=d, rho=(0, 0, 0))
    print(f"d = {tuple(str(x) for x in config.d)}: {classify(config)}")

w = billiard_word(BilliardConfig(d=(1, sqrt(2), sqrt(3)), rho=(0, 0, 0))).prefix(100_000)
profile = complexity(w, 8)
print("independent direction, P(n) vs n^2+n+1:",
      [(profile.counts[n], n * n + n + 1) for n in range(1, 9)])
