"""octobench: the standing end-to-end benchmark of the served OCTOPUS system."""
