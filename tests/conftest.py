"""Tier-1 runs Hypothesis without its shrink phase.  Shrinking never turns a
failure into a pass, but behind a broken kernel it keeps one run busy for
minutes; every example generated and every verdict stay the same.
`pytest --hypothesis-profile=default` turns shrinking back on."""

from hypothesis import Phase, settings

settings.register_profile("no_shrink", phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
settings.load_profile("no_shrink")
