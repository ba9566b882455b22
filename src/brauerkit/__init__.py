"""brauerkit: Brauer diagrams, circuit algebras, and graph substitution.

The library is organised bottom-up:

    pairing        fixed-point-free involutions and their stacking composition
    brauer         the monochrome Brauer category BD
    brauer_algebra linear enrichment Br_delta over a commutative ring
    coloured       palette-coloured Brauer diagrams and walled normal forms
    axioms         circuit-operad laws, stated once, and the driver that checks them
    wiring         wiring-diagram operads and Set-valued circuit algebras
    graph          Joyal-Kock graphs, etale maps, gluing, isomorphism
    substitution   graphs of graphs, colimits, vertex deletion, similarity
    species        graphical species, circuit-operad structures, Segal checks
    cli            command-line front end
"""

__version__ = "0.1.0"
